package wan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/persist"
	"prete/internal/stats"
)

func newStateTestbed(t *testing.T) *Testbed {
	t.Helper()
	tb, err := NewTestbed(fastSwitch(), func(f optical.Features) float64 { return 0.8 })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.Ctl.Metrics = obs.NewRegistry()
	tb.Ctl.Log = new(EventLog)
	tb.SolveUnits = 200000
	return tb
}

// TestWarmRestartResumesLastGood is the tentpole end-to-end check: run one
// TE epoch with a state directory, kill the controller (Close is crash-
// equivalent: nothing is flushed), restart a fresh incarnation against the
// same directory, and verify it resumes the degradation ladder from the
// journaled last-good state instead of empty.
func TestWarmRestartResumesLastGood(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	tb := newStateTestbed(t)
	rec, err := tb.OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Warm || rec.Generation != 1 {
		t.Fatalf("fresh dir: Recovery = %+v, want cold gen 1", rec)
	}
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	wantRates := tb.Ctl.LastGoodRates()
	wantProbs := tb.Ctl.LastProbs()
	if wantRates == nil || len(wantProbs) == 0 {
		t.Fatalf("epoch left no state to journal: rates=%v probs=%v", wantRates, wantProbs)
	}
	if got := tb.Ctl.Epoch(); got != 1 {
		t.Fatalf("Epoch() = %d after one round, want 1", got)
	}

	// Crash + restart: fresh process, same state directory.
	if err := tb.RestartController(TCPTransport{}); err != nil {
		t.Fatal(err)
	}
	rec, err = tb.OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Warm {
		t.Fatalf("restart did not recover warm: %+v", rec)
	}
	if rec.Epoch != 1 || rec.Generation != 2 {
		t.Errorf("recovered epoch=%d gen=%d, want epoch 1 gen 2", rec.Epoch, rec.Generation)
	}
	if got := tb.Ctl.LastGoodRates(); !reflect.DeepEqual(got, wantRates) {
		t.Errorf("recovered last-good rates = %v, want %v", got, wantRates)
	}
	if got := tb.Ctl.LastProbs(); !reflect.DeepEqual(got, wantProbs) {
		t.Errorf("recovered probs = %v, want %v", got, wantProbs)
	}
	// OpenState re-asserted the recovered table fleet-wide.
	for _, a := range tb.Agents {
		if got := a.Rates(); !reflect.DeepEqual(got, wantRates) {
			t.Errorf("agent %s rates after warm restart = %v, want %v", a.Name, got, wantRates)
		}
	}
	// A second epoch on the recovered lineage journals as epoch 2.
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if got := tb.Ctl.Epoch(); got != 2 {
		t.Errorf("Epoch() after restart + one round = %d, want 2", got)
	}
	m := tb.Ctl.Metrics
	if m.Counter("wan.recovery.warm").Value() != 1 || m.Counter("wan.recovery.runs").Value() != 2 {
		t.Errorf("recovery counters: warm=%d runs=%d, want 1/2",
			m.Counter("wan.recovery.warm").Value(), m.Counter("wan.recovery.runs").Value())
	}
}

// parentJournalRecord is an epoch record exactly as a build that stamped
// per-agent RPC sequence numbers journaled it (prete-testbed -fast, first
// epoch): it carries a peer_seq map and a tunnel list that EpochState no
// longer has.
const parentJournalRecord = `{"epoch":1,"rates":{"t0":50,"t1":50,"t2":50},` +
	`"tunnels":[{"Switch":"s1","TunnelID":2,"Path":[2,5]}],` +
	`"peer_seq":{"s1":2,"s2":1,"s3":1},` +
	`"probs":[0.8,0.006749999999999999,0.00075],"scenario_fp":42863850126226000}`

// TestWarmRestartReadsParentJournal: a state directory whose newest record
// was written by an older build (with peer_seq and tunnels) still recovers
// warm, with its epoch, rates, probabilities and scenario fingerprint, and
// the recovered controller's next rate push is accepted at its generation.
func TestWarmRestartReadsParentJournal(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, []byte(parentJournalRecord)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	tb := newStateTestbed(t)
	rec, err := tb.OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Warm || rec.Epoch != 1 || rec.Generation != 2 {
		t.Fatalf("Recovery = %+v, want warm epoch 1 gen 2", rec)
	}
	wantRates := map[string]float64{"t0": 50, "t1": 50, "t2": 50}
	if got := tb.Ctl.LastGoodRates(); !reflect.DeepEqual(got, wantRates) {
		t.Errorf("recovered rates = %v, want %v", got, wantRates)
	}
	if got, want := tb.Ctl.LastProbs(), []float64{0.8, 0.006749999999999999, 0.00075}; !reflect.DeepEqual(got, want) {
		t.Errorf("recovered probs = %v, want %v", got, want)
	}
	if got := tb.Ctl.LastScenarioFP(); got != 42863850126226000 {
		t.Errorf("recovered scenario fingerprint = %d, want 42863850126226000", got)
	}
	if n := tb.Ctl.Metrics.Counter("wan.recovery.scenario_fp_mismatch").Value(); n != 0 {
		t.Errorf("the recovered probabilities rebuilt a different scenario set (%d mismatches)", n)
	}

	next := map[string]float64{"t0": 40, "t1": 60, "t2": 50}
	if _, err := tb.Ctl.UpdateRates(next); err != nil {
		t.Fatalf("rate push after recovery: %v", err)
	}
	for _, a := range tb.Agents {
		if got := a.Rates(); !reflect.DeepEqual(got, next) {
			t.Errorf("agent %s rates = %v, want %v", a.Name, got, next)
		}
		if a.MaxGen() != rec.Generation || a.FenceRejections() != 0 {
			t.Errorf("agent %s fenced to gen %d with %d rejections, want gen %d and none",
				a.Name, a.MaxGen(), a.FenceRejections(), rec.Generation)
		}
	}
}

// TestFenceRejectsStaleGeneration checks the epoch fence: once an agent has
// seen generation G, a request stamped with an older generation — a zombie
// incarnation that lost the state directory but still holds sockets — is
// refused without mutating switch state.
func TestFenceRejectsStaleGeneration(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	dir := t.TempDir()

	// The zombie: claims generation 1, then loses the state directory (its
	// store is closed) while its connection to the agent stays alive.
	zombie := newTestController(t, map[string]string{"s1": a.Addr()})
	zombie.Metrics = obs.NewRegistry()
	zombie.Log = new(EventLog)
	if _, err := zombie.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := zombie.UpdateRates(map[string]float64{"t0": 10}); err != nil {
		t.Fatal(err)
	}
	if got := a.MaxGen(); got != 1 {
		t.Fatalf("agent fenced to gen %d after first controller, want 1", got)
	}
	if err := zombie.ReleaseState(); err != nil {
		t.Fatal(err)
	}

	// The successor incarnation claims generation 2 and talks to the agent.
	succ := newTestController(t, map[string]string{"s1": a.Addr()})
	succ.Metrics = obs.NewRegistry()
	if _, err := succ.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if got := succ.Generation(); got != 2 {
		t.Fatalf("successor generation = %d, want 2", got)
	}
	if _, err := succ.UpdateRates(map[string]float64{"t0": 20}); err != nil {
		t.Fatal(err)
	}

	// The zombie's writes must now bounce off the fence and leave the
	// successor's table untouched.
	_, err := zombie.UpdateRates(map[string]float64{"t0": 99})
	if err == nil {
		t.Fatal("stale-generation update accepted")
	}
	if a.FenceRejections() != 1 {
		t.Errorf("agent fence rejections = %d, want 1", a.FenceRejections())
	}
	if got := a.Rates()["t0"]; got != 20 {
		t.Errorf("agent rate after fenced write = %v, want successor's 20", got)
	}
	if v := zombie.Metrics.Counter("wan.recovery.fence_rejections").Value(); v != 1 {
		t.Errorf("wan.recovery.fence_rejections = %d, want 1", v)
	}
	found := false
	for _, e := range zombie.Log.Events() {
		if e == "rpc s1 update_rates fenced" {
			found = true
		}
	}
	if !found {
		t.Errorf("no fenced event logged: %v", zombie.Log.Events())
	}
}

// TestStateDirUnsetInvariant pins the compatibility guarantee: a testbed
// with a state directory produces exactly the same installed rates, the
// same agent-visible behaviour, and the same event sequence as one without
// — modulo the single recovery event OpenState itself logs. This mirrors
// the obs on/off invariant tests: persistence is a write-only side channel.
func TestStateDirUnsetInvariant(t *testing.T) {
	checkGoroutineLeaks(t)
	run := func(dir string) ([]string, []map[string]float64) {
		tb := newStateTestbed(t)
		if dir != "" {
			if _, err := tb.OpenState(dir); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tb.RunScenario(7); err != nil {
			t.Fatal(err)
		}
		var rates []map[string]float64
		for _, a := range tb.Agents {
			rates = append(rates, a.Rates())
		}
		return tb.Ctl.Log.Events(), rates
	}
	plainEvents, plainRates := run("")
	stateEvents, stateRates := run(t.TempDir())
	wantEvents := append([]string{"recovery cold gen=1"}, plainEvents...)
	if !reflect.DeepEqual(stateEvents, wantEvents) {
		t.Errorf("event sequence diverged with state dir:\n with: %v\n want: %v", stateEvents, wantEvents)
	}
	if !reflect.DeepEqual(stateRates, plainRates) {
		t.Errorf("agent rates diverged with state dir: %v vs %v", stateRates, plainRates)
	}
}

// TestSecondOpenerFailsFastAtControllerLevel: two controllers sharing a
// StateDir is an operational error; the second must fail fast with the
// typed lock error, not block or corrupt.
func TestSecondOpenerFailsFastAtControllerLevel(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	dir := t.TempDir()
	c1 := newTestController(t, map[string]string{"s1": a.Addr()})
	if _, err := c1.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	c2 := newTestController(t, map[string]string{"s1": a.Addr()})
	_, err := c2.OpenState(dir)
	var le *persist.LockError
	if !errors.As(err, &le) {
		t.Fatalf("second OpenState: err = %v, want *persist.LockError", err)
	}
	// Double OpenState on one controller is also refused.
	if _, err := c1.OpenState(t.TempDir()); err == nil {
		t.Fatal("second OpenState on same controller accepted")
	}
	// After the holder goes away the directory is claimable again, one
	// generation later.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := c2.OpenState(dir)
	if err != nil {
		t.Fatalf("OpenState after release: %v", err)
	}
	if rec.Generation != 2 {
		t.Errorf("generation after release = %d, want 2", rec.Generation)
	}
}

// TestEncodeEpochStateMatchesMarshal: a journal record spliced from a rate
// table's cached encoding is byte-identical to json.Marshal of the whole
// EpochState, for random states including a nil table, an empty one, nil
// and empty probability vectors, epoch 1 and the largest epoch, and a
// table encoded a second time from its cache.
func TestEncodeEpochStateMatchesMarshal(t *testing.T) {
	rng := stats.NewRNG(41)
	for i := 0; i < 500; i++ {
		var rates map[string]float64
		switch i % 4 {
		case 1:
			rates = map[string]float64{}
		case 2, 3:
			rates = make(map[string]float64)
			for n := rng.Intn(40); n >= 0; n-- {
				rates[fmt.Sprintf("s%d/t%d<&>", rng.Intn(12), rng.Intn(300))] = rng.Float64() * 100
			}
		}
		var table *rateTable
		if rates != nil {
			table = &rateTable{rates: rates, tag: rateTag(rates)}
		}
		var probs []float64
		if i%3 == 1 {
			probs = []float64{}
		} else if i%3 == 2 {
			for n := rng.Intn(30); n >= 0; n-- {
				probs = append(probs, rng.Float64())
			}
		}
		epoch := uint64(rng.Intn(1 << 20))
		switch i % 5 {
		case 0:
			epoch = 1
		case 1:
			epoch = ^uint64(0)
		}
		var fp uint64
		if i%2 == 0 {
			fp = uint64(rng.Float64() * (1 << 64))
		}
		want, err := json.Marshal(&EpochState{Epoch: epoch, Rates: rates, Probs: probs, ScenarioFP: fp})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := encodeEpochState(epoch, table, probs, fp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("state %d pass %d:\n got %s\nwant %s", i, pass, got, want)
			}
		}
	}
}
