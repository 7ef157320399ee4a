package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridrealloc/internal/workload"
)

func TestRunGeneratedScenario(t *testing.T) {
	err := run([]string{
		"-scenario", "jan", "-fraction", "0.003", "-seed", "5",
		"-platform", "homogeneous", "-batch", "FCFS",
		"-algorithm", "realloc", "-heuristic", "MinMin",
		"-compare", "-jobs",
	}, io.Discard)
	if err != nil {
		t.Fatalf("gridsim run failed: %v", err)
	}
}

func TestRunFromSWF(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.swf")
	trace, err := workload.Scenario("feb", 0.002, 9)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteSWF(f, trace); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"-swf", path, "-batch", "CBF", "-algorithm", "none"}, io.Discard); err != nil {
		t.Fatalf("gridsim SWF run failed: %v", err)
	}
}

// TestRunMultiScenarioCampaign exercises the comma-separated campaign mode:
// several scenarios fanned over the pooled runner, with baselines and
// comparisons.
func TestRunMultiScenarioCampaign(t *testing.T) {
	err := run([]string{
		"-scenario", "jan, feb", "-fraction", "0.003", "-seed", "5",
		"-platform", "homogeneous", "-batch", "FCFS",
		"-algorithm", "realloc-cancel", "-heuristic", "Mct",
		"-parallel", "2", "-compare",
	}, io.Discard)
	if err != nil {
		t.Fatalf("gridsim campaign failed: %v", err)
	}
	// Without -compare the campaign prints plain summaries.
	if err := run([]string{"-scenario", "jan,feb", "-fraction", "0.003", "-algorithm", "none"}, io.Discard); err != nil {
		t.Fatalf("gridsim campaign without compare failed: %v", err)
	}
}

// TestRunCampaignInterrupted is the SIGINT contract in miniature: a
// cancelled context must stop the campaign, report how many runs completed
// and exit with an error instead of pretending the campaign ran.
func TestRunCampaignInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the "SIGINT" lands before the campaign starts
	var buf bytes.Buffer
	err := runCtx(ctx, []string{
		"-scenario", "jan,feb,mar", "-fraction", "0.003", "-algorithm", "none",
	}, &buf)
	if err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("cancellation error does not say interrupted: %v", err)
	}
	// The single-scenario path ignores cancellation only in so far as one
	// simulation is the unit of work; the campaign path must skip instead.
	if strings.Contains(buf.String(), "summary:") {
		t.Fatalf("cancelled-before-start campaign still printed summaries:\n%s", buf.String())
	}
}

// TestRunMultiScenarioRejectsBadInput covers the campaign-mode error paths:
// -swf cannot pair with a scenario list, and a bad scenario in the list
// surfaces as the lowest-index failure.
func TestRunMultiScenarioRejectsBadInput(t *testing.T) {
	if err := run([]string{"-scenario", "jan,feb", "-swf", "whatever.swf"}, io.Discard); err == nil {
		t.Fatal("-swf with a scenario list accepted")
	}
	if err := run([]string{"-scenario", "jan,definitely-not-a-month", "-fraction", "0.003"}, io.Discard); err == nil {
		t.Fatal("unknown scenario in the list accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scenario", "jan", "-fraction", "0.002", "-batch", "EASYGOING"}, io.Discard); err == nil {
		t.Fatal("unknown batch policy accepted")
	}
	if err := run([]string{"-scenario", "jan", "-fraction", "0.002", "-algorithm", "teleport"}, io.Discard); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run([]string{"-swf", "/does/not/exist.swf"}, io.Discard); err == nil {
		t.Fatal("missing SWF file accepted")
	}
}

// TestRunPrintsSummary pins the shape of the human output: the trace line,
// the summary block and the paper metrics must all reach the writer.
func TestRunPrintsSummary(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scenario", "jan", "-fraction", "0.003", "-seed", "5",
		"-platform", "homogeneous", "-batch", "FCFS",
		"-algorithm", "realloc", "-heuristic", "MinMin", "-compare",
	}, &buf)
	if err != nil {
		t.Fatalf("gridsim run failed: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"trace \"jan\":",
		"run summary:",
		"baseline summary:",
		"paper metrics vs baseline:",
		"number of reallocations:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// failingWriter rejects every write, standing in for a full disk.
type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestRunReportsWriteFailure is the exit-non-zero-on-any-failure-path
// contract: when stdout writes fail, run must return an error rather than
// pretend the report was delivered.
func TestRunReportsWriteFailure(t *testing.T) {
	err := run([]string{"-scenario", "jan", "-fraction", "0.003", "-algorithm", "none"}, failingWriter{})
	if err == nil {
		t.Fatal("run succeeded despite every stdout write failing")
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("error does not surface the write failure: %v", err)
	}
}

func TestRunWritesCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	err := run([]string{"-scenario", "jan", "-fraction", "0.003", "-cpuprofile", path}, io.Discard)
	if err != nil {
		t.Fatalf("gridsim -cpuprofile failed: %v", err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Fatalf("no CPU profile written (%v)", err)
	}
	if err := run([]string{"-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.prof")}, io.Discard); err == nil {
		t.Fatal("an unwritable profile path was accepted")
	}
}
