package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunRejectsUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run("bogus", "", &sb, nil); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("err = %v", err)
	}
}

func TestRunFig2(t *testing.T) {
	var sb strings.Builder
	if err := run("2", "", &sb, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig 2", "uncapped finish", "capped finish"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPlanBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var sb strings.Builder
	if err := runPlanBench(path, &sb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report planBenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(report.Modes) != 3 {
		t.Fatalf("report has %d modes, want 3", len(report.Modes))
	}
	for _, m := range report.Modes {
		if m.PlansPerSec <= 0 || m.NsPerPlan <= 0 {
			t.Errorf("mode %s has empty measurements: %+v", m.Name, m)
		}
	}
	if warm := report.Modes[2]; warm.AvgSearchIters != 0 {
		t.Errorf("warm-cache avg simulations = %v, want 0 (all hits)", warm.AvgSearchIters)
	}
	if report.SpeedupWarmCache <= 1 {
		t.Errorf("warm-cache speedup = %.2fx, want > 1x", report.SpeedupWarmCache)
	}
	if !strings.Contains(sb.String(), "speedup:") {
		t.Errorf("summary missing speedup line:\n%s", sb.String())
	}

	sweep := report.Fig8Sweep
	if sweep.Cells == 0 || sweep.WohaCells == 0 || sweep.PlansServed == 0 {
		t.Fatalf("sweep section is empty: %+v", sweep)
	}
	// The shared planner simulates each distinct structural key exactly once;
	// cache hits and coalesced waits account for every other request.
	if got := sweep.DistinctKeysSimulated + sweep.CacheHits + sweep.Coalesced; got != sweep.PlansServed {
		t.Errorf("sweep accounting: distinct %d + hits %d + coalesced %d = %d, want plans served %d",
			sweep.DistinctKeysSimulated, sweep.CacheHits, sweep.Coalesced, got, sweep.PlansServed)
	}
	if sweep.DuplicateFills != 0 {
		t.Errorf("sweep duplicate fills = %d, want 0", sweep.DuplicateFills)
	}
	if !sweep.FiguresByteIdentical {
		t.Error("shared-planner figures differ from per-cell figures")
	}
	if !sweep.FirstRowBeforeLastCell {
		t.Errorf("first streamed row arrived after the sweep finished: %d/%d cells done",
			sweep.CellsDoneAtFirstRow, sweep.Cells)
	}
	if report.Contended.Goroutines == 0 || report.Contended.PlansPerSec <= 0 {
		t.Errorf("contended section is empty: %+v", report.Contended)
	}
	if report.Contended.DuplicateFills != 0 {
		t.Errorf("contended duplicate fills = %d, want 0", report.Contended.DuplicateFills)
	}
}

// TestRunFig8Streams pins the streamed Fig 8 rendering: the row-by-row
// TableWriter output of run("8") must be byte-identical to the batch
// MissTable render of the same sweep.
func TestRunFig8Streams(t *testing.T) {
	var sb strings.Builder
	if err := run("8", "", &sb, nil); err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Fig8(experiments.DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := res.MissTable().Render(&want); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want.String() {
		t.Errorf("streamed Fig 8 differs from batch render:\nstreamed:\n%s\nbatch:\n%s", sb.String(), want.String())
	}
}

func TestRunFig13bAndTimelines(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run("13b", dir, &sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig 13(b)") {
		t.Errorf("missing Fig 13(b) table:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "timelines written") {
		t.Errorf("missing timeline confirmation:\n%s", sb.String())
	}
}

// TestBenchOutStdoutIsJSON pins the "-" path of the report writers: stdout
// must carry exactly one JSON document, with the text summary on
// stderr (shared by every writer through emitReport).
func TestBenchOutStdoutIsJSON(t *testing.T) {
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()

	var stdout bytes.Buffer
	if err := runFederationBench("-", &stdout); err != nil {
		t.Fatal(err)
	}
	var report federationBenchReport
	dec := json.NewDecoder(&stdout)
	if err := dec.Decode(&report); err != nil {
		t.Fatalf("stdout is not JSON: %v", err)
	}
	if len(report.Points) == 0 {
		t.Fatal("decoded report has no points")
	}
	if dec.More() {
		t.Fatal("stdout carries more than the JSON report")
	}
	summary, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(summary), "sweep pass:") {
		t.Errorf("summary missing from stderr:\n%s", summary)
	}
}
