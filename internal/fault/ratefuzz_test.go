package fault

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"prete/internal/obs"
	"prete/internal/wan"
)

// faultLevels maps a two-bit level to a per-attempt fault probability.
var faultLevels = [4]float64{0, 0.05, 0.15, 0.3}

// FuzzRatePush drives the controller's delta rate push through the fault
// injector. The script's first byte seeds the injector; the second picks a
// level for each of drop, duplicate, corrupt and crash (two bits each).
// Every later byte is one epoch: bits 0-1 choose add, drop, change or
// leave unchanged, bits 2-4 the tunnel, the rest the value; the table is
// then pushed. The invariant: after every UpdateRates that succeeds, every
// agent holds each entry of that table, bit for bit, and LastGoodRates is
// that table. A failed push (retries exhausted) may leave any agent on any
// table; the next success must converge it anyway. And no agent is ever
// asked to resync: transport faults alone must never leave the controller
// wrong about which table an agent holds.
func FuzzRatePush(f *testing.F) {
	// add t0, add t1, unchanged, change t1, drop t0, unchanged, re-add t0:
	// without faults, with every fault at the lowest level, at the highest.
	ops := []byte{0x20, 0x44, 0x03, 0x66, 0x01, 0x03, 0xa0}
	for _, mix := range []byte{0x00, 0x55, 0xff} {
		f.Add(append([]byte{7, mix}, ops...))
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			t.Skip("no fault spec")
		}
		if len(script) > 66 {
			script = script[:66]
		}
		mix := script[1]
		inj, err := NewInjector(Spec{
			Seed:      uint64(script[0]),
			Drop:      faultLevels[mix&3],
			Duplicate: faultLevels[mix>>2&3],
			Corrupt:   faultLevels[mix>>4&3],
			Crash:     faultLevels[mix>>6&3],
			CrashRPCs: 2,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		agents, addrs := rateFleet(t)
		ctl := fuzzController(t, NewTransport(wan.TCPTransport{}, inj), addrs)
		defer ctl.Close()

		table := map[string]float64{}
		for i, b := range script[2:] {
			pushed := scriptEpoch(table, i, b)
			if _, err := ctl.UpdateRates(pushed); err != nil {
				continue
			}
			holdsAll(t, fmt.Sprintf("epoch %d", i), agents, table)
			last := ctl.LastGoodRates()
			if len(last) != len(table) {
				t.Fatalf("epoch %d: last good %v, pushed %v", i, last, table)
			}
			for k, v := range table {
				if math.Float64bits(last[k]) != math.Float64bits(v) {
					t.Fatalf("epoch %d: last good %v, pushed %v", i, last, table)
				}
			}
		}
		if n := ctl.Metrics.Counter("wan.rates.resyncs").Value(); n != 0 {
			t.Fatalf("%d resyncs: the controller lost track of an agent's table", n)
		}
	})
}

// rateFleet starts three agents (s1..s3), closed when t ends, and returns
// them with their addresses.
func rateFleet(t *testing.T) ([]*wan.SwitchAgent, map[string]string) {
	t.Helper()
	cfg := fastSwitch()
	cfg.RateLatency = 0
	var agents []*wan.SwitchAgent
	addrs := map[string]string{}
	for i := 1; i <= 3; i++ {
		a, err := wan.NewSwitchAgent(fmt.Sprintf("s%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		agents = append(agents, a)
		addrs[a.Name] = a.Addr()
	}
	return agents, addrs
}

// fuzzController dials addrs through tr with a registry and a three-attempt
// retry policy whose backoff is negligible.
func fuzzController(t *testing.T, tr wan.Transport, addrs map[string]string) *wan.Controller {
	t.Helper()
	ctl, err := wan.NewControllerTransport(tr, addrs)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Metrics = obs.NewRegistry()
	ctl.Retry = wan.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}
	return ctl
}

// scriptEpoch applies epoch i's script byte b to table and returns a copy
// to push: bits 0-1 choose add, drop, change or leave unchanged, bits 2-4
// the tunnel, the rest the value.
func scriptEpoch(table map[string]float64, i int, b byte) map[string]float64 {
	key := fmt.Sprintf("t%d", b>>2&7)
	val := float64(b>>5) + float64(i)/4
	switch b & 3 {
	case 0: // add (or overwrite)
		table[key] = val
	case 1:
		delete(table, key)
	case 2: // change, keeping the entry if it exists
		table[key] = -val
	}
	pushed := make(map[string]float64, len(table))
	for k, v := range table {
		pushed[k] = v
	}
	return pushed
}

// holdsAll requires every agent to hold each entry of table, bit for bit.
func holdsAll(t *testing.T, step string, agents []*wan.SwitchAgent, table map[string]float64) {
	t.Helper()
	for _, a := range agents {
		got := a.Rates()
		for k, v := range table {
			if w, ok := got[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("%s: agent %s holds %s=%v (present %v), want %v", step, a.Name, k, w, ok, v)
			}
		}
	}
}

// tagTap sits between the fault layer and TCP and records, per agent, the
// tag of the last rate push the agent answered OK: the table it holds.
type tagTap struct {
	mu   sync.Mutex
	tags map[string]uint64
}

func (tp *tagTap) Dial(name, addr string) (wan.Conn, error) {
	cn, err := wan.TCPTransport{}.Dial(name, addr)
	if err != nil {
		return nil, err
	}
	return &tagTapConn{tp: tp, peer: name, inner: cn}, nil
}

func (tp *tagTap) held(peer string) uint64 {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.tags[peer]
}

type tagTapConn struct {
	tp    *tagTap
	peer  string
	inner wan.Conn
}

func (c *tagTapConn) RoundTrip(req *wan.Request, timeout time.Duration) (*wan.Response, error) {
	resp, err := c.inner.RoundTrip(req, timeout)
	if err == nil && resp != nil && resp.OK && req.Type == wan.MsgUpdateRates {
		c.tp.mu.Lock()
		c.tp.tags[c.peer] = req.Tag
		c.tp.mu.Unlock()
	}
	return resp, err
}

func (c *tagTapConn) Close() error { return c.inner.Close() }

// FuzzWarmRestartRatePush drives a warm restart's re-assert after a
// scripted, fault-injected history. Byte 0 seeds the injector and byte 1
// picks the fault levels, as in FuzzRatePush. Byte 2 places the close: its
// bits 1-7, when not 0, halt the controller process at that global RPC
// attempt, and bit 0 journals the last epoch's push (left clear, the
// incarnation ends right after an unjournaled push). Every later byte is
// one epoch as in FuzzRatePush, journaled when its push succeeds. A warm
// incarnation then opens the same state directory over the same faulty
// links and re-asserts LastGoodRates until one push succeeds. The
// invariants: the recovered table is the last one journaled; once the
// re-assert succeeds, every agent holds each of its entries bit for bit;
// wan.rates.resyncs is at most the number of agents whose table was not
// the recovered one; and a re-assert that succeeds at once sends the full
// table to those agents only.
func FuzzWarmRestartRatePush(f *testing.F) {
	ops := []byte{0x20, 0x44, 0x03, 0x66, 0x01, 0x03, 0xa0}
	for _, mix := range []byte{0x00, 0x55, 0xff} {
		for _, end := range []byte{0x00, 0x01, 0x0e} {
			f.Add(append([]byte{7, mix, end}, ops...))
		}
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			t.Skip("no fault spec or close point")
		}
		if len(script) > 67 {
			script = script[:67]
		}
		mix := script[1]
		inj, err := NewInjector(Spec{
			Seed:      uint64(script[0]),
			Drop:      faultLevels[mix&3],
			Duplicate: faultLevels[mix>>2&3],
			Corrupt:   faultLevels[mix>>4&3],
			Crash:     faultLevels[mix>>6&3],
			CrashRPCs: 2,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		agents, addrs := rateFleet(t)
		tap := &tagTap{tags: map[string]uint64{}}
		// A budget of -1 (bits 1-7 clear) never halts.
		halt := NewCtlCrash(NewTransport(tap, inj), int64(script[2]>>1)-1, nil)
		dir := t.TempDir()
		dead := fuzzController(t, halt, addrs)
		if _, err := dead.OpenState(dir); err != nil {
			t.Fatal(err)
		}

		var journaled map[string]float64 // the last table journaled (nil: none)
		var journaledTag uint64
		table := map[string]float64{}
		epochs := script[3:]
		for i, b := range epochs {
			pushed := scriptEpoch(table, i, b)
			for k, v := range pushed {
				pushed[k] = math.Abs(v) // recovery rejects a negative rate
			}
			_, err := dead.UpdateRates(pushed)
			if errors.Is(err, wan.ErrControllerHalted) {
				break
			}
			if err != nil || (i == len(epochs)-1 && script[2]&1 == 0) {
				continue
			}
			if err := dead.JournalEpoch(nil, 0); err != nil {
				t.Fatal(err)
			}
			journaled, journaledTag = pushed, tap.held("s1")
		}
		dead.Close()

		warm := fuzzController(t, NewTransport(tap, inj), addrs)
		defer warm.Close()
		rec, err := warm.OpenState(dir)
		if err != nil {
			t.Fatal(err)
		}
		last := warm.LastGoodRates()
		if rec.Warm != (journaled != nil) || len(last) != len(journaled) {
			t.Fatalf("recovered warm=%v rates %v, journaled %v", rec.Warm, last, journaled)
		}
		for k, v := range journaled {
			if w, ok := last[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("recovered rates %v, journaled %v", last, journaled)
			}
		}
		if len(last) == 0 {
			return // nothing to re-assert
		}
		differed := 0
		for _, a := range agents {
			if tap.held(a.Name) != journaledTag {
				differed++
			}
		}
		attempts := 1
		for ; ; attempts++ {
			if _, err := warm.UpdateRates(last); err == nil {
				break
			}
			if attempts == 8 {
				t.Skip("re-assert kept failing under faults")
			}
		}
		holdsAll(t, "after the re-assert", agents, last)
		resyncs := warm.Metrics.Counter("wan.rates.resyncs").Value()
		if resyncs > int64(differed) {
			t.Fatalf("%d resyncs, but only %d agents held a table other than the recovered one", resyncs, differed)
		}
		if sent := warm.Metrics.Counter("wan.rates.entries_sent").Value(); attempts == 1 && sent != resyncs*int64(len(last)) {
			t.Fatalf("re-assert sent %d entries with %d resyncs of a %d-entry table, want full tables to resynced agents only",
				sent, resyncs, len(last))
		}
	})
}
