package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mip"
	"repro/internal/obs"
)

// robustProgram is a small function with real bank decisions (two
// operands, shared subterms) used by the failure-policy tests.
func robustProgram(t *testing.T) string {
	t.Helper()
	return `fun main(a: word, b: word) -> word { (a + b) ^ (a & b) }`
}

func TestFallbackForceProducesVerifiedAllocation(t *testing.T) {
	base := obs.TakeSnapshot()
	opts := DefaultOptions()
	opts.Fallback = FallbackForce
	res := allocate(t, robustProgram(t), opts)
	if !res.Fallback {
		t.Fatal("Result.Fallback = false for a forced fallback allocation")
	}
	if d := obs.Since(base); d["alloc/fallback"] < 1 {
		t.Fatalf("alloc/fallback = %d, want >= 1", d["alloc/fallback"])
	}
}

func TestBudgetExhaustionFallsBackToGreedy(t *testing.T) {
	// A 1ns budget expires inside root phase 1, which carries no point:
	// the ILP reports TimeLimit with no incumbent and the greedy
	// allocator must take over.
	mp := lower(t, robustProgram(t))
	base := obs.TakeSnapshot()
	res, err := Allocate(mp, DefaultOptions(), &mip.Options{Time: time.Nanosecond})
	if err != nil {
		t.Fatalf("budget-starved allocate with fallback: %v", err)
	}
	if err := Verify(res); err != nil {
		t.Fatalf("verify fallback allocation: %v", err)
	}
	if !res.Fallback {
		t.Fatalf("expected the greedy fallback, got ILP status %v", res.MIP.Status)
	}
	if d := obs.Since(base); d["alloc/fallback"] < 1 {
		t.Fatalf("alloc/fallback = %d, want >= 1", d["alloc/fallback"])
	}
}

func TestBudgetExhaustionFallbackOffErrors(t *testing.T) {
	mp := lower(t, robustProgram(t))
	opts := DefaultOptions()
	opts.Fallback = FallbackOff
	_, err := Allocate(mp, opts, &mip.Options{Time: time.Nanosecond})
	if err == nil {
		t.Fatal("budget-starved allocate with FallbackOff must error")
	}
	if !strings.Contains(err.Error(), "no incumbent") {
		t.Fatalf("error %q should name the missing incumbent", err)
	}
}

func TestCancelledAllocateErrorsWithoutFallback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mp := lower(t, robustProgram(t))
	_, err := Allocate(mp, DefaultOptions(), &mip.Options{Ctx: ctx})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled allocate: err = %v, want a cancellation error (no fallback)", err)
	}
}

func TestNodeLimitIncumbentIsUsable(t *testing.T) {
	mp := lower(t, robustProgram(t))
	res, err := Allocate(mp, DefaultOptions(), &mip.Options{MaxNodes: 1})
	if err != nil {
		t.Fatalf("node-limited allocate: %v", err)
	}
	if err := Verify(res); err != nil {
		t.Fatalf("verify node-limited allocation: %v", err)
	}
	switch res.MIP.Status {
	case mip.Optimal, mip.NodeLimit:
	default:
		t.Fatalf("status = %v, want optimal or node-limit", res.MIP.Status)
	}
}

func TestNoSpillInfeasibilityStillSurfaces(t *testing.T) {
	// A genuine infeasibility (NoSpill removes the escape bank) must
	// not be silently papered over by the fallback: the greedy
	// allocator cannot place the program either, so the original
	// infeasibility error surfaces even in FallbackAuto.
	src := robustOverpressureSrc(t)
	mp := lower(t, src)
	opts := DefaultOptions()
	opts.NoSpill = true
	if _, err := Allocate(mp, opts, nil); err == nil {
		t.Skip("program fits without spilling; infeasibility path not reachable here")
	}
}

// robustOverpressureSrc builds a function with enough simultaneously
// live, CSE-distinct values to overflow the register file when
// spilling is banned (A+B+4 transfer banks hold 63 words).
func robustOverpressureSrc(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintln(&b, "fun main(a: word) -> word {")
	for i := 0; i < 72; i++ {
		fmt.Fprintf(&b, "\tlet v%d = a * %d;\n", i, i*13+7)
	}
	// Consume the values in reverse definition order so every one is
	// live across all the later definitions.
	b.WriteString("\tv71")
	for i := 70; i >= 0; i-- {
		fmt.Fprintf(&b, " + v%d", i)
	}
	fmt.Fprintln(&b, "\n}")
	return b.String()
}

func TestFaultInjectedAllocateStillOptimal(t *testing.T) {
	plan, err := fault.Parse("mip/worker_panic@1,lp/refactor_fail@1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	t.Cleanup(fault.Reset)
	base := obs.TakeSnapshot()
	res := allocate(t, robustProgram(t), DefaultOptions())
	if res.Fallback {
		t.Fatal("one-shot faults must be recovered inside the solver, not via fallback")
	}
	d := obs.Since(base)
	if d["lp/refactor_retries"] < 1 {
		t.Fatalf("lp/refactor_retries = %d, want >= 1 (deltas %v)", d["lp/refactor_retries"], d)
	}
	if d["mip/recovered_panics"] < 1 {
		t.Fatalf("mip/recovered_panics = %d, want >= 1 (deltas %v)", d["mip/recovered_panics"], d)
	}
}
