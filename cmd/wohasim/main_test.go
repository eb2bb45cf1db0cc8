package main

import (
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

const simXML = `<workflow name="w" deadline="30m">
  <job name="a" maps="8" reduces="2" map-time="20s" reduce-time="1m"><output>/s</output></job>
  <job name="b" maps="4" reduces="1" map-time="20s" reduce-time="1m"><input>/s</input></job>
</workflow>`

func writeXML(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.xml")
	if err := os.WriteFile(path, []byte(simXML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// clusterArgs is the small four-node cluster the XML tests run on.
func clusterArgs(more ...string) []string {
	return append([]string{"-nodes", "4", "-map-slots", "2", "-reduce-slots", "1", "-seed", "1"}, more...)
}

// runArgs drives the CLI by argv and returns its stdout.
func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut strings.Builder
	if err := runMain(args, &out, &errOut); err != nil {
		t.Fatalf("wohasim %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String()
}

func TestRunXMLWorkload(t *testing.T) {
	timeline := filepath.Join(t.TempDir(), "tl.csv")
	runArgs(t, clusterArgs("-workload", writeXML(t), "-timeline", timeline)...)
	if _, err := os.Stat(timeline); err != nil {
		t.Errorf("timeline not written: %v", err)
	}
}

func TestRunXMLWorkloadParallelCachedPlans(t *testing.T) {
	// Same workload through the parallel, cached planner path.
	runArgs(t, clusterArgs("-workload", writeXML(t), "-plan-workers", "4", "-plan-cache", "32")...)
}

func TestRunErrors(t *testing.T) {
	if err := runMain(clusterArgs("-workload", "/nonexistent.xml"), io.Discard, io.Discard); err == nil {
		t.Error("missing workload accepted")
	}
	if err := runMain(clusterArgs("-workload", writeXML(t), "-scheduler", "Mystery"), io.Discard, io.Discard); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestRunLiveXMLWorkload(t *testing.T) {
	// Run the XML workload on the live mini-Hadoop at a steep compression,
	// on one shard and on two.
	for _, shards := range []string{"1", "2"} {
		start := time.Now()
		runArgs(t, "-live", "-workload", writeXML(t), "-scheduler", "FIFO", "-nodes", "4", "-map-slots", "2",
			"-reduce-slots", "1", "-shards", shards, "-time-scale", "0.00005")
		if time.Since(start) > 20*time.Second {
			t.Errorf("shards=%s: live run took %v", shards, time.Since(start))
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	// -metrics-addr on an ephemeral port: run an instrumented simulation,
	// then read the final scrape the CLI takes over real HTTP.
	scrape := runArgs(t, clusterArgs("-workload", writeXML(t), "-metrics-addr", "127.0.0.1:0",
		"-plan-workers", "2", "-plan-cache", "8")...)
	for _, name := range []string{
		"woha_heartbeat_duration_seconds",
		"woha_tasks_assigned_total",
		"woha_workflows_deadline_missed_total",
		"woha_planner_plans_total",
		"woha_planner_cache_misses_total",
		"woha_build_info",
		"woha_health_min_slack_tasks",
	} {
		if !strings.Contains(scrape, name) {
			t.Errorf("scrape missing %s", name)
		}
	}
	// The run assigned tasks, so the counter must be non-zero.
	if !regexp.MustCompile(`(?m)^woha_tasks_assigned_total [1-9]`).MatchString(scrape) {
		t.Errorf("woha_tasks_assigned_total not incremented:\n%s", scrape)
	}
	if !strings.Contains(scrape, "# TYPE woha_heartbeat_duration_seconds histogram") {
		t.Errorf("heartbeat histogram TYPE line missing:\n%s", scrape)
	}
}

// TestStdoutGoldens pins every engine's report byte for byte against
// testdata recorded from the four separate run paths this CLI had before
// they became one run spec (timeline path normalised to TIMELINE).
func TestStdoutGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fig7", []string{"-workload", "fig7"}},
		{"yahoo_edf_heartbeat_noise", []string{"-workload", "yahoo", "-scheduler", "EDF", "-heartbeat", "3s", "-noise", "0.1"}},
		{"yahoo_admission_tenants", []string{"-workload", "yahoo", "-nodes", "60", "-admission", "feasible", "-tenants", "a:quota=0.6;b:rate=20,burst=3"}},
		{"yahoo_fair_replicas", []string{"-workload", "yahoo", "-scheduler", "Fair", "-replicas", "3"}},
		{"yahoo_clusters4_slack", []string{"-workload", "yahoo", "-clusters", "4", "-nodes", "20", "-router", "slack", "-snapshot-refresh", "2m"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			checkGolden(t, tc.golden+".golden", runArgs(t, tc.args...))
		})
	}
	t.Run("xml_hlf_timeline", func(t *testing.T) {
		tl := filepath.Join(t.TempDir(), "tl.csv")
		out := runArgs(t, "-workload", writeXML(t), "-scheduler", "WOHA-HLF", "-timeline", tl)
		checkGolden(t, "xml_hlf_timeline.golden", strings.ReplaceAll(out, tl, "TIMELINE"))
		csv, err := os.ReadFile(tl)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "xml_hlf_timeline.csv", string(csv))
	})
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestCaptureOutputs pins the Fig 11 capture files: the postmortem JSON
// against testdata and the Perfetto trace by digest (the trace is 285 kB).
func TestCaptureOutputs(t *testing.T) {
	dir := t.TempDir()
	pm, tr := filepath.Join(dir, "pm.json"), filepath.Join(dir, "trace.json")
	runArgs(t, "-workload", "fig7", "-postmortem", pm, "-trace-out", tr)
	raw, err := os.ReadFile(pm)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7_postmortem.json", string(raw))
	if raw, err = os.ReadFile(tr); err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(raw)
	if got := hex.EncodeToString(sum[:]); got != "86c3a9a8c1627c2d794c59bb7aed7296" {
		t.Errorf("fig7 trace md5 = %s, want 86c3a9a8c1627c2d794c59bb7aed7296", got)
	}
}

func TestWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := runArgs(t, "-workload", "fig7", "-trace-out", path)
	if !strings.Contains(out, "events written") {
		t.Errorf("missing confirmation line:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file must be the Chrome trace-event JSON object format with both
	// track groups named via metadata events.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var trackers, workflows bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				switch args["name"] {
				case "trackers":
					trackers = true
				case "workflows":
					workflows = true
				}
			}
		}
	}
	if !trackers || !workflows {
		t.Errorf("trace missing track metadata: trackers=%v workflows=%v", trackers, workflows)
	}
}

// TestFlagMatrix drives every engine with each flag it does not honour and
// expects a refusal naming the flag, before anything runs. The list is
// written out here, independently of the CLI's own table.
func TestFlagMatrix(t *testing.T) {
	sample := map[string][]string{
		"heartbeat":        {"-heartbeat", "3s"},
		"submitter":        {"-submitter", "1s"},
		"noise":            {"-noise", "0.3"},
		"replicas":         {"-replicas", "3"},
		"replica-workers":  {"-replica-workers", "2"},
		"clusters":         {"-clusters", "2"},
		"router":           {"-router", "round-robin"},
		"snapshot-refresh": {"-snapshot-refresh", "1m"},
		"admission":        {"-admission", "feasible"},
		"tenants":          {"-tenants", "a:quota=0.5"},
		"timeline":         {"-timeline", "x.csv"},
		"postmortem":       {"-postmortem", "x.json"},
		"trace-out":        {"-trace-out", "x.json"},
		"time-scale":       {"-time-scale", "0.01"},
		"shards":           {"-shards", "2"},
	}
	for _, tc := range []struct {
		engine  string
		args    []string
		refuses []string
	}{
		{"simulator", nil, []string{"replica-workers", "router", "snapshot-refresh", "time-scale", "shards"}},
		{"federation", []string{"-clusters", "2"}, []string{"replica-workers", "timeline", "postmortem", "trace-out", "time-scale", "shards"}},
		{"replicas", []string{"-replicas", "2"}, []string{"clusters", "router", "snapshot-refresh", "admission", "tenants", "timeline", "postmortem", "trace-out", "time-scale", "shards"}},
		{"live", []string{"-live"}, []string{"heartbeat", "submitter", "noise", "replicas", "replica-workers", "clusters", "router", "snapshot-refresh", "timeline"}},
	} {
		for _, name := range tc.refuses {
			args := append(append([]string{}, tc.args...), sample[name]...)
			expectRefusal(t, args, "-"+name, tc.engine)
		}
	}

	// The cases a run used to accept silently, exiting 0.
	expectRefusal(t, strings.Fields("-live -replicas 3 -timeline x.csv -seed 9 -noise 0.3 -heartbeat 3s"),
		"-heartbeat", "-noise", "-replicas", "-timeline")
	expectRefusal(t, strings.Fields("-replicas 2 -tenants a:quota=0.5"), "-tenants")
	expectRefusal(t, strings.Fields("-clusters 2 -tenants a:quota=0.5"), "-tenants")
	expectRefusal(t, strings.Fields("-clusters 0"), "-clusters")

	// Honoured combinations still parse.
	for _, args := range [][]string{
		strings.Fields("-clusters 2 -admission feasible -tenants a:quota=0.5 -router round-robin -snapshot-refresh 1m -heartbeat 3s"),
		strings.Fields("-live -seed 9 -admission feasible -postmortem x.json -trace-out y.json -time-scale 0.01 -shards 2"),
		strings.Fields("-replicas 2 -replica-workers 1 -noise 0.1 -seed 4"),
		strings.Fields("-replicas 1 -clusters 1 -timeline x.csv -postmortem x.json -trace-out y.json"),
	} {
		if _, err := parseSpec(args, io.Discard); err != nil {
			t.Errorf("wohasim %s: %v", strings.Join(args, " "), err)
		}
	}
}

// expectRefusal runs argv and wants an error naming every one of names.
func expectRefusal(t *testing.T, args []string, names ...string) {
	t.Helper()
	var out strings.Builder
	err := runMain(args, &out, io.Discard)
	if err == nil {
		t.Errorf("wohasim %s: accepted, want a refusal naming %v", strings.Join(args, " "), names)
		return
	}
	for _, n := range names {
		if !regexp.MustCompile(regexp.QuoteMeta(n) + `\b`).MatchString(err.Error()) {
			t.Errorf("wohasim %s: error %q does not name %s", strings.Join(args, " "), err, n)
		}
	}
	if out.Len() > 0 {
		t.Errorf("wohasim %s: refused run wrote a report:\n%s", strings.Join(args, " "), out.String())
	}
}

// seriesNames returns the distinct woha_* metric names in a scrape.
func seriesNames(scrape string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "woha_") {
			seen[line[:strings.IndexAny(line, "{ ")]] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestMetricsAcrossMemberCounts checks that federated members carry the
// single member's instrumentation: the same woha_* series (plus the
// federation's own woha_fed_*), including the WOHA queue statistics and the
// policy decision histogram, and one generated plan per WOHA workflow.
func TestMetricsAcrossMemberCounts(t *testing.T) {
	var base []string
	for _, members := range []string{"1", "2"} {
		scrape := runArgs(t, "-workload", "fig7", "-clusters", members, "-metrics-addr", "127.0.0.1:0")
		if !regexp.MustCompile(`(?m)^woha_plans_generated_total 3$`).MatchString(scrape) {
			t.Errorf("-clusters %s: woha_plans_generated_total is not 3 (fig7 has 3 WOHA workflows)", members)
		}
		for _, series := range []string{`woha_queue_inserts_total\{queue="DSL"\} 3`, `woha_scheduler_decision_seconds_count\{policy="WOHA-LPF"\} [1-9]`} {
			if !regexp.MustCompile(`(?m)^` + series).MatchString(scrape) {
				t.Errorf("-clusters %s: scrape has no %s", members, series)
			}
		}
		var names []string
		for _, n := range seriesNames(scrape) {
			if !strings.HasPrefix(n, "woha_fed_") {
				names = append(names, n)
			}
		}
		if base == nil {
			base = names
			continue
		}
		if strings.Join(names, "\n") != strings.Join(base, "\n") {
			t.Errorf("-clusters %s series differ from -clusters 1:\n got %v\nwant %v", members, names, base)
		}
	}
}

// TestPostmortemPlansOnce pins that the postmortem specs reuse the
// submission's plans: fig7's three workflows cost three plan searches with
// the plan cache off.
func TestPostmortemPlansOnce(t *testing.T) {
	scrape := runArgs(t, "-workload", "fig7", "-metrics-addr", "127.0.0.1:0",
		"-postmortem", filepath.Join(t.TempDir(), "pm.json"))
	m := regexp.MustCompile(`(?m)^woha_planner_plans_total (\d+)$`).FindStringSubmatch(scrape)
	if m == nil {
		t.Fatal("scrape has no woha_planner_plans_total")
	}
	if n, _ := strconv.Atoi(m[1]); n != 3 {
		t.Errorf("woha_planner_plans_total = %d, want 3", n)
	}
}
