package fault

import (
	"reflect"
	"strings"
	"testing"

	"prete/internal/core"
	"prete/internal/te"
)

// admissionLines filters a failover trace down to the class-aware ladder's
// per-tier event lines.
func admissionLines(events []string) []string {
	var out []string
	for _, ev := range events {
		if strings.HasPrefix(ev, "admission tier=") {
			out = append(out, ev)
		}
	}
	return out
}

// TestStormFailoverAdmissionReplay drills into the F9 row's admission
// behaviour: a leader crash mid-storm must not perturb the class-aware
// ladder — the promoted site's reaction emits the same per-tier
// admission lines as the pre-crash epoch, and the whole trace (lines and
// final decision) replays bit-identically.
func TestStormFailoverAdmissionReplay(t *testing.T) {
	fc := failoverCase{
		name: "storm_failover_admission", sites: 2, leaseTicks: 2, epochs: 1, crashBudget: 2, maxTicks: 5,
		classes:      te.DefaultClassSpec(),
		storm:        []core.DegradationSignal{{Fiber: 1, PNN: 0.7}},
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	}
	a := runFailoverScenario(t, fc)
	b := runFailoverScenario(t, fc)

	admA, admB := admissionLines(a.Events), admissionLines(b.Events)
	if !reflect.DeepEqual(admA, admB) {
		t.Errorf("admission event lines diverge on replay:\n run A: %v\n run B: %v", admA, admB)
	}
	// Two completed epochs (the healthy one and the post-promotion one):
	// each emits exactly one line per tier of the default three-tier spec.
	// The crashed epoch died before its rate push, so it admits nothing.
	tiers := len(fc.classes.Tiers)
	if len(admA) != 2*tiers {
		t.Fatalf("got %d admission lines, want %d (2 epochs x %d tiers):\n%v", len(admA), 2*tiers, tiers, admA)
	}
	// The promoted lineage replays the same storm reaction with a fresh
	// ladder, so its per-tier lines match the pre-crash epoch verbatim.
	if pre, post := admA[:tiers], admA[tiers:]; !reflect.DeepEqual(pre, post) {
		t.Errorf("post-promotion admission diverges from pre-crash:\n pre:  %v\n post: %v", pre, post)
	}

	if a.Admission == nil {
		t.Fatal("no admission decision captured after the storm failover")
	}
	if err := a.Admission.Check(); err != nil {
		t.Errorf("post-failover admission accounting: %v", err)
	}
	if !reflect.DeepEqual(a.Admission, b.Admission) {
		t.Errorf("final admission decision diverges on replay:\n run A: %+v\n run B: %+v", a.Admission, b.Admission)
	}
	// Every tier appears in spec order on each epoch's lines.
	for e := 0; e < 2; e++ {
		for k, tier := range fc.classes.Tiers {
			if !strings.HasPrefix(admA[e*tiers+k], "admission tier="+tier.Name+" ") {
				t.Errorf("epoch %d line %d is not tier %s: %q", e+1, k, tier.Name, admA[e*tiers+k])
			}
		}
	}
}
