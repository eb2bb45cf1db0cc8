package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/simtime.(*Queue[go.shape.struct { repro/internal/cluster.kind uint8 }]).down": "simtime",
		"repro/internal/cluster.(*Simulator).offer":                                                   "cluster",
		"repro/internal/cluster/refsim.(*Simulator).Run":                                              "cluster",
		"repro/internal/dsl.(*lagIndex).ascend":                                                       "dsl",
		"repro/internal/live.(*shardedTracker).Heartbeat.func1":                                       "live",
		"runtime.mallocgc":                 "runtime",
		"runtime/internal/atomic.Xadd64":   "runtime",
		"internal/runtime/maps.(*Map).Get": "runtime",
		"sync.(*Mutex).Lock":               "other",
		"__tsan_read":                      "runtime",
		"racecalladdr":                     "runtime",
		"main.main":                        "other",
		"repro.(*Session).Run":             "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spinQueue keeps a simtime queue busy for d, so a CPU profile taken
// meanwhile charges most of its flat time to the simtime module.
func spinQueue(d time.Duration) int {
	var q simtime.Queue[int]
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 4096; i++ {
			q.Push(simtime.Time((i*7919)%4096), i)
		}
		for q.Len() > 0 {
			_, v, _ := q.Pop()
			n += v
		}
	}
	return n
}

func TestFlatSharesOfRecordedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spinQueue(500 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	col, err := p.column("cpu/nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) < 5 {
		t.Skipf("only %d CPU samples recorded; host too busy to profile", len(p.samples))
	}
	shares := p.flatShares(col)
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	// The loop's own frames are "other"; the queue it drives must outweigh
	// them. (Under -race most leaves are the race runtime's.)
	if shares["simtime"] == 0 || shares["simtime"] <= shares["other"] {
		t.Errorf("simtime share %.2f of a queue-bound loop, want above other: %v", shares["simtime"], shares)
	}
}

func TestMutexWeightByModule(t *testing.T) {
	// A mutex profile of contended locks taken only from this package must
	// charge nothing to the live module, and its delay column must decode.
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				mu.Lock()
				time.Sleep(time.Microsecond)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	col, err := p.column("delay/nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.weightIn(col, "live"); got != 0 {
		t.Errorf("live delay = %d ns, want 0", got)
	}
	if p.weightIn(col, "other") <= 0 {
		t.Error("no contention charged to the test's own frames")
	}
}
