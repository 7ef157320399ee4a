package metrics

import (
	"fmt"
	"strings"

	"gridrealloc/internal/runner"
)

// Health grades a campaign execution's fault-tolerance outcome so reports
// and CLIs can surface degradation next to the paper metrics: a campaign
// whose numbers were computed over a partial scenario set is not comparable
// to a clean one, and the grade makes that visible.
type Health struct {
	// Grade is the one-word summary: "clean" (every task completed on its
	// first attempt), "recovered" (faults occurred but every task still
	// completed) or "degraded" (tasks failed or were skipped, so results
	// are partial).
	Grade string
	// Stats are the campaign counters the grade was derived from.
	Stats runner.RunStats
}

// HealthOf grades a campaign's RunStats.
func HealthOf(s runner.RunStats) Health {
	h := Health{Stats: s}
	switch {
	case s.Failed != 0 || s.Skipped != 0:
		h.Grade = "degraded"
	case s.Degraded():
		h.Grade = "recovered"
	default:
		h.Grade = "clean"
	}
	return h
}

// Clean reports whether every task completed on its first attempt.
func (h Health) Clean() bool { return h.Grade == "clean" }

// Partial reports whether the campaign's results cover fewer tasks than
// were requested (failed or skipped tasks exist).
func (h Health) Partial() bool { return h.Grade == "degraded" }

// String renders the grade with the non-zero fault counters, e.g.
// "degraded: 70/72 completed (1 failed, 1 skipped, 1 panic recovered)".
// A clean campaign renders as
// "clean: 72/72 completed".
func (h Health) String() string {
	s := h.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d completed", h.Grade, s.Completed, s.Tasks)
	var parts []string
	add := func(n int64, singular, plural string) {
		if n == 0 {
			return
		}
		if n == 1 {
			parts = append(parts, fmt.Sprintf("1 %s", singular))
		} else {
			parts = append(parts, fmt.Sprintf("%d %s", n, plural))
		}
	}
	add(s.Failed, "failed", "failed")
	add(s.Skipped, "skipped", "skipped")
	add(s.RecoveredPanics, "panic recovered", "panics recovered")
	add(s.Retries, "retry", "retries")
	add(s.Timeouts, "timeout", "timeouts")
	if len(parts) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	return b.String()
}
