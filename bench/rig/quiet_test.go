package rig

import (
	"reflect"
	"testing"
)

func TestPlanForKeepsTheIssuesProportions(t *testing.T) {
	if got := PlanFor(30); got != (Plan{Target: 30, Need: 24, Cap: 45}) {
		t.Errorf("PlanFor(30) = %+v, want 30/24/45", got)
	}
	if got := PlanFor(12); got != (Plan{Target: 12, Need: 10, Cap: 18}) {
		t.Errorf("PlanFor(12) = %+v, want 12/10/18", got)
	}
}

func flags(n int, noisy ...int) []bool {
	f := make([]bool, n)
	for _, i := range noisy {
		f[i] = true
	}
	return f
}

func TestNoisyAppliesBothLimits(t *testing.T) {
	for _, c := range []struct {
		steal, foreign float64
		want           bool
	}{
		{0, 0, false},
		{StealLimitPct, ForeignLimitPct, false}, // at the limit is still quiet
		{StealLimitPct + 0.1, 0, true},
		{0, ForeignLimitPct + 0.1, true},
	} {
		if got := Noisy(c.steal, c.foreign); got != c.want {
			t.Errorf("Noisy(%v, %v) = %v, want %v", c.steal, c.foreign, got, c.want)
		}
	}
}

func TestPhaseExtendsUntilEnoughQuietWindows(t *testing.T) {
	p := PlanFor(10) // needs 8 quiet, may run to 15
	if p.Done(flags(9)) {
		t.Error("stopped before the target window count")
	}
	if !p.Done(flags(10, 3, 7)) {
		t.Error("10 windows with 8 quiet should be enough")
	}
	if p.Done(flags(10, 1, 3, 7)) {
		t.Error("10 windows with 7 quiet should extend")
	}
	if !p.Done(flags(11, 1, 3, 7)) {
		t.Error("one more quiet window should end the extension")
	}
	if !p.Done(flags(15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)) {
		t.Error("the cap must end the phase however noisy it was")
	}
}

func TestSelectDropsFlaggedWindows(t *testing.T) {
	use, noisy := Select(flags(6, 1, 4))
	if !reflect.DeepEqual(use, []int{0, 2, 3, 5}) || noisy != 2 {
		t.Errorf("Select = %v, %d noisy", use, noisy)
	}
}

func TestSelectKeepsEverythingWhenTooFewAreQuiet(t *testing.T) {
	use, noisy := Select(flags(5, 0, 1, 2))
	if !reflect.DeepEqual(use, []int{0, 1, 2, 3, 4}) || noisy != 3 {
		t.Errorf("Select = %v, %d noisy; want all five windows and 3 flagged", use, noisy)
	}
}
