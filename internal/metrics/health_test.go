package metrics

import (
	"testing"

	"gridrealloc/internal/runner"
)

func TestHealthOfGrades(t *testing.T) {
	cases := []struct {
		name  string
		stats runner.RunStats
		grade string
	}{
		{"clean", runner.RunStats{Tasks: 72, Completed: 72}, "clean"},
		{"recovered-retries", runner.RunStats{Tasks: 72, Completed: 72, Retries: 3}, "recovered"},
		{"degraded-failed", runner.RunStats{Tasks: 72, Completed: 70, Failed: 2, RecoveredPanics: 2}, "degraded"},
		{"degraded-skipped", runner.RunStats{Tasks: 72, Completed: 10, Skipped: 62}, "degraded"},
	}
	for _, tc := range cases {
		h := HealthOf(tc.stats)
		if h.Grade != tc.grade {
			t.Errorf("%s: grade = %q, want %q", tc.name, h.Grade, tc.grade)
		}
		if h.Clean() != (tc.grade == "clean") {
			t.Errorf("%s: Clean() = %v", tc.name, h.Clean())
		}
		if h.Partial() != (tc.grade == "degraded") {
			t.Errorf("%s: Partial() = %v", tc.name, h.Partial())
		}
	}
}

func TestHealthString(t *testing.T) {
	clean := HealthOf(runner.RunStats{Tasks: 72, Completed: 72})
	if got, want := clean.String(), "clean: 72/72 completed"; got != want {
		t.Errorf("clean: %q, want %q", got, want)
	}
	h := HealthOf(runner.RunStats{
		Tasks: 72, Completed: 70, Failed: 1, Skipped: 1,
		RecoveredPanics: 1, Retries: 2, Timeouts: 1,
	})
	want := "degraded: 70/72 completed (1 failed, 1 skipped, 1 panic recovered, 2 retries, 1 timeout)"
	if got := h.String(); got != want {
		t.Errorf("degraded:\n got %q\nwant %q", got, want)
	}
}
