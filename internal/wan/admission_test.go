package wan

import (
	"crypto/sha256"
	"os"
	"reflect"
	"strings"
	"testing"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/te"
)

// fakeClassed builds a ClassedResult with the given per-tier offered
// demand and loss bound, for driving the admission stage directly.
func fakeClassed(spec *te.ClassSpec, offered, phis []float64) *core.ClassedResult {
	cr := &core.ClassedResult{Alloc: make(te.Allocation)}
	for k, tier := range spec.Tiers {
		cr.Tiers = append(cr.Tiers, core.TierResult{
			Name: tier.Name, Policy: tier.Policy,
			Offered: offered[k], Res: &core.Result{Phi: phis[k]}, ExpectedLoss: phis[k],
		})
	}
	return cr
}

func TestAdmissionCleanEpoch(t *testing.T) {
	spec := te.DefaultClassSpec()
	reg := obs.NewRegistry()
	a := NewAdmission(spec, reg, nil)
	dec := a.Decide(fakeClassed(spec, []float64{20, 50, 30}, []float64{0.5, 0.5, 0.5}), false)
	if err := dec.Check(); err != nil {
		t.Fatal(err)
	}
	for _, td := range dec.Tiers {
		if td.Rung != "clean" || td.Admitted != td.Offered || td.Shed != 0 || td.Deferred != 0 {
			t.Errorf("clean epoch tier %s: %+v", td.Tier, td)
		}
	}
	if n := reg.Counter("wan.admission.ticks").Value(); n != 1 || dec.Degraded {
		t.Errorf("ticks %d, degraded %v: want 1 clean tick", n, dec.Degraded)
	}
}

func TestAdmissionLadderRungs(t *testing.T) {
	spec := te.DefaultClassSpec() // lc:protect, std:defer, bulk:shed
	a := NewAdmission(spec, obs.NewRegistry(), new(EventLog))
	cr := fakeClassed(spec, []float64{20, 50, 30}, []float64{0.5, 0.2, 0.4})
	dec := a.Decide(cr, true)
	if err := dec.Check(); err != nil {
		t.Fatal(err)
	}
	lc, std, bulk := dec.Tiers[0], dec.Tiers[1], dec.Tiers[2]
	if lc.Rung != "protect" || lc.Admitted != 20 || lc.Shed != 0 || lc.Deferred != 0 {
		t.Errorf("protect tier: %+v", lc)
	}
	if std.Rung != "defer" || std.Admitted != 0.8*50 || std.Deferred != 50-0.8*50 || std.Shed != 0 {
		t.Errorf("defer tier: %+v", std)
	}
	if bulk.Rung != "shed" || bulk.Admitted != 0.6*30 || bulk.Shed != 30-0.6*30 || bulk.Deferred != 0 {
		t.Errorf("shed tier: %+v", bulk)
	}

	// Deferred backlog is re-offered next epoch on top of the base demand.
	dec2 := a.Decide(cr, true)
	if err := dec2.Check(); err != nil {
		t.Fatal(err)
	}
	std2 := dec2.Tiers[1]
	if std2.Offered != 50+std.Deferred {
		t.Errorf("backlog not re-offered: offered %v, want %v", std2.Offered, 50+std.Deferred)
	}
	if std2.Deferred != std2.Offered-std2.Admitted {
		t.Errorf("second-epoch defer accounting: %+v", std2)
	}

	// A clean epoch drains the backlog completely.
	dec3 := a.Decide(cr, false)
	std3 := dec3.Tiers[1]
	if std3.Rung != "clean" || std3.Admitted != std3.Offered || std3.Deferred != 0 {
		t.Errorf("backlog not drained on clean epoch: %+v", std3)
	}
	dec4 := a.Decide(cr, true)
	if dec4.Tiers[1].Offered != 50 {
		t.Errorf("backlog leaked across clean epoch: offered %v", dec4.Tiers[1].Offered)
	}
}

func TestAdmissionLastGood(t *testing.T) {
	spec := te.DefaultClassSpec()
	reg := obs.NewRegistry()
	a := NewAdmission(spec, reg, nil)
	if dec := a.DecideLastGood(); dec != nil {
		t.Fatalf("last-good before any decision should be nil, got %+v", dec)
	}
	cr := fakeClassed(spec, []float64{20, 50, 30}, []float64{0, 0.2, 0.4})
	first := a.Decide(cr, true)
	replay := a.DecideLastGood()
	if replay == nil || !replay.LastGood || reg.Counter("wan.admission.ticks").Value() != 2 {
		t.Fatalf("last-good replay: %+v after %d ticks, want the second", replay, reg.Counter("wan.admission.ticks").Value())
	}
	if err := replay.Check(); err != nil {
		t.Fatal(err)
	}
	for k, td := range replay.Tiers {
		want := first.Tiers[k]
		if td.Rung != "last-good" || td.Offered != want.Offered || td.Admitted != want.Admitted ||
			td.Shed != want.Shed || td.Deferred != want.Deferred {
			t.Errorf("tier %s replay diverges: %+v vs %+v", td.Tier, td, want)
		}
	}
	if got := a.Last(); got != first {
		t.Errorf("Last() should keep the real decision, got %+v", got)
	}
}

func TestAdmissionCheckCatchesCorruption(t *testing.T) {
	dec := &AdmissionDecision{Tiers: []TierDecision{
		{Tier: "x", Offered: 10, Admitted: 5, Shed: 4, Deferred: 0},
	}}
	if err := dec.Check(); err == nil {
		t.Fatal("Check passed a decision missing 1 Gbps")
	}
	dec.Tiers[0].Shed = 5
	if err := dec.Check(); err != nil {
		t.Fatalf("exact decision rejected: %v", err)
	}
	dec.Tiers[0].Admitted, dec.Tiers[0].Shed = 11, -1
	if err := dec.Check(); err == nil {
		t.Fatal("Check passed a negative component")
	}
}

// TestClassesDisabledByteIdentity pins the acceptance invariant: a testbed
// with Classes set to the single default tier produces byte-identical
// events, agent rates, counter/gauge metrics, and state-directory contents
// to a classless run.
func TestClassesDisabledByteIdentity(t *testing.T) {
	checkGoroutineLeaks(t)
	run := func(spec *te.ClassSpec) (events []string, rates []map[string]float64,
		counters map[string]int64, gauges map[string]float64, files map[string][32]byte) {
		dir := t.TempDir()
		tb := newStateTestbed(t)
		tb.Classes = spec
		if _, err := tb.OpenState(dir); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := tb.RunScenario(7); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range tb.Agents {
			rates = append(rates, a.Rates())
		}
		snap := tb.Ctl.Metrics.Snapshot()
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files = make(map[string][32]byte, len(names))
		for _, de := range names {
			b, err := os.ReadFile(dir + "/" + de.Name())
			if err != nil {
				t.Fatal(err)
			}
			files[de.Name()] = sha256.Sum256(b)
		}
		return tb.Ctl.Log.Events(), rates, snap.Counters, snap.Gauges, files
	}

	plainEvents, plainRates, plainCounters, plainGauges, plainFiles := run(nil)
	uniEvents, uniRates, uniCounters, uniGauges, uniFiles := run(te.UniformClassSpec())
	if !reflect.DeepEqual(uniEvents, plainEvents) {
		t.Errorf("events diverged with a disabled class spec:\n with: %v\n want: %v", uniEvents, plainEvents)
	}
	if !reflect.DeepEqual(uniRates, plainRates) {
		t.Errorf("agent rates diverged: %v vs %v", uniRates, plainRates)
	}
	if !reflect.DeepEqual(uniCounters, plainCounters) {
		t.Errorf("counters diverged: %v vs %v", uniCounters, plainCounters)
	}
	if !reflect.DeepEqual(uniGauges, plainGauges) {
		t.Errorf("gauges diverged: %v vs %v", uniGauges, plainGauges)
	}
	if !reflect.DeepEqual(uniFiles, plainFiles) {
		t.Errorf("state-dir hashes diverged: %v vs %v", uniFiles, plainFiles)
	}
	for _, ev := range uniEvents {
		if strings.HasPrefix(ev, "admission ") {
			t.Errorf("disabled classes emitted an admission event: %q", ev)
		}
	}
}

// TestClassedReactionRound runs the full reaction pipeline with the
// default three-tier spec: the round must produce a checked admission
// decision, per-tier event lines, and replay bit-identically.
func TestClassedReactionRound(t *testing.T) {
	checkGoroutineLeaks(t)
	run := func() ([]string, *AdmissionDecision) {
		tb := newStateTestbed(t)
		tb.Classes = te.DefaultClassSpec()
		if _, err := tb.RunScenario(7); err != nil {
			t.Fatal(err)
		}
		return tb.Ctl.Log.Events(), tb.LastAdmission()
	}
	events, dec := run()
	if dec == nil {
		t.Fatal("no admission decision after a classed reaction round")
	}
	if err := dec.Check(); err != nil {
		t.Fatal(err)
	}
	if len(dec.Tiers) != 3 || !dec.Degraded {
		t.Fatalf("decision shape: %+v", dec)
	}
	// The protected tier is never shed or deferred.
	if lc := dec.Tiers[0]; lc.Shed != 0 || lc.Deferred != 0 || lc.Admitted != lc.Offered {
		t.Errorf("protected tier rejected traffic: %+v", lc)
	}
	var admissionLines int
	for _, ev := range events {
		if strings.HasPrefix(ev, "admission tier=") {
			admissionLines++
		}
	}
	if admissionLines != 3 {
		t.Errorf("got %d admission event lines, want 3:\n%v", admissionLines, events)
	}
	events2, dec2 := run()
	if !reflect.DeepEqual(events2, events) {
		t.Errorf("classed reaction replay diverged:\n run1 %v\n run2 %v", events, events2)
	}
	if !reflect.DeepEqual(dec2, dec) {
		t.Errorf("admission decision replay diverged: %+v vs %+v", dec2, dec)
	}
}
