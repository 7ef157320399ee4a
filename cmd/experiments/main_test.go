package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleTableReducedCampaign(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	var buf bytes.Buffer
	err := run([]string{
		"-fraction", "0.004",
		"-scenarios", "jan,apr",
		"-table", "8",
		"-quiet",
		"-csv", csv,
	}, &buf)
	if err != nil {
		t.Fatalf("experiments run failed: %v", err)
	}
	if !strings.Contains(buf.String(), "heuristics:") {
		t.Fatalf("closing heuristics note missing from output:\n%s", buf.String())
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	content := string(data)
	if !strings.HasPrefix(content, "table,policy,heuristic") {
		t.Fatalf("CSV header missing:\n%s", content)
	}
	if !strings.Contains(content, "8,FCFS,Mct") {
		t.Fatalf("CSV rows missing:\n%s", content)
	}
}

func TestRunTable1Flag(t *testing.T) {
	err := run([]string{
		"-fraction", "0.002",
		"-scenarios", "jan",
		"-table", "2",
		"-table1",
		"-quiet",
	}, io.Discard)
	if err != nil {
		t.Fatalf("experiments -table1 failed: %v", err)
	}
}

func TestRunInvalidTable(t *testing.T) {
	if err := run([]string{"-fraction", "0.002", "-scenarios", "jan", "-table", "42", "-quiet"}, io.Discard); err == nil {
		t.Fatal("invalid table number accepted")
	}
}

func TestRunWritesCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	err := run([]string{"-fraction", "0.002", "-scenarios", "jan", "-table", "2", "-quiet", "-cpuprofile", path}, io.Discard)
	if err != nil {
		t.Fatalf("experiments -cpuprofile failed: %v", err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Fatalf("no CPU profile written (%v)", err)
	}
}
