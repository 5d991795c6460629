package fault

import (
	"fmt"
	"math"
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
		cfg := fastSwitch()
		cfg.RateLatency = 0
		var agents []*wan.SwitchAgent
		addrs := map[string]string{}
		for i := 1; i <= 3; i++ {
			a, err := wan.NewSwitchAgent(fmt.Sprintf("s%d", i), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			agents = append(agents, a)
			addrs[a.Name] = a.Addr()
		}
		ctl, err := wan.NewControllerTransport(NewTransport(wan.TCPTransport{}, inj), addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer ctl.Close()
		ctl.Metrics = obs.NewRegistry()
		ctl.Retry = wan.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}

		table := map[string]float64{}
		for i, b := range script[2:] {
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
			if _, err := ctl.UpdateRates(pushed); err != nil {
				continue
			}
			for _, a := range agents {
				got := a.Rates()
				for k, v := range table {
					if w, ok := got[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
						t.Fatalf("epoch %d: agent %s holds %s=%v (present %v), pushed %v", i, a.Name, k, w, ok, v)
					}
				}
			}
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
