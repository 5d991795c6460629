package wan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"prete/internal/persist"
	"prete/internal/scenario"
)

// EpochState is the controller state journaled after every successful TE
// epoch and recovered on warm restart: everything the degradation ladder
// needs to resume from "last-good" instead of an empty plan. The reactive
// tunnels are not journaled: a restart re-derives them from Probs (§4.2).
// The JSON encoding is deterministic (maps sort by key), so identical epochs
// journal byte-identically — the chaos replay tests diff on this. Decoding
// ignores fields it does not know, so a record from an older build, which
// also journaled per-agent RPC sequence numbers ("peer_seq") or the
// installed tunnel set ("tunnels"), still recovers warm.
type EpochState struct {
	// Epoch is the 1-based count of completed reaction rounds.
	Epoch uint64 `json:"epoch"`
	// Rates is the last rate table pushed fleet-wide without error (the
	// ladder's last-good rung).
	Rates map[string]float64 `json:"rates,omitempty"`
	// Probs is the most recent calibrated per-fiber failure probability
	// vector (Eqn. 1 output) the scenario set was built from.
	Probs []float64 `json:"probs,omitempty"`
	// ScenarioFP is the scenario.Set fingerprint of the epoch's enumerated
	// failure-scenario set (0 when the journaling caller did not supply
	// one). On warm restart the testbed re-enumerates from Probs and checks
	// the rebuilt set against this fingerprint before priming the solver's
	// warm-start cache — a mismatch means enumeration options or code
	// drifted across the restart and the cache must start cold.
	ScenarioFP uint64 `json:"scenario_fp,omitempty"`
}

// encodeEpochState returns json.Marshal(&EpochState{epoch, rates.entries(),
// probs, fp}) byte for byte, with the rate table's encoding taken from the
// table (marshaled once per table) instead of re-sorted every epoch. "rates"
// is the field after "epoch", so its key and value go right after the
// epoch's digits; a nil or empty table is omitted, as omitempty omits it.
func encodeEpochState(epoch uint64, rates *rateTable, probs []float64, fp uint64) ([]byte, error) {
	b, err := json.Marshal(&EpochState{Epoch: epoch, Probs: probs, ScenarioFP: fp})
	if err != nil || len(rates.entries()) == 0 {
		return b, err
	}
	rj, err := rates.encoded()
	if err != nil {
		return nil, err
	}
	at := len(strconv.AppendUint([]byte(`{"epoch":`), epoch, 10))
	out := make([]byte, 0, len(b)+len(`,"rates":`)+len(rj))
	out = append(out, b[:at]...)
	out = append(out, `,"rates":`...)
	out = append(out, rj...)
	return append(out, b[at:]...), nil
}

// decodeEpochState rejects records that parse but are not plausible state
// (recovery must never resurrect garbage into the ladder).
func decodeEpochState(b []byte) (*EpochState, error) {
	var s EpochState
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("wan: decode recovered state: %w", err)
	}
	if s.Epoch == 0 {
		return nil, fmt.Errorf("wan: recovered state has epoch 0")
	}
	for k, v := range s.Rates {
		if v < 0 {
			return nil, fmt.Errorf("wan: recovered state has negative rate %s=%v", k, v)
		}
	}
	for i, p := range s.Probs {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("wan: recovered state prob[%d]=%v out of [0,1]", i, p)
		}
	}
	return &s, nil
}

// Recovery describes what OpenState found in the state directory.
type Recovery struct {
	// Warm reports that a valid prior state was recovered; false is a cold
	// start (fresh directory, or nothing survived corruption).
	Warm bool
	// Epoch is the recovered epoch sequence (0 when cold).
	Epoch uint64
	// Generation is this incarnation's fence value, stamped into every RPC.
	Generation uint64
	// RecordsReplayed and CorruptSkipped summarize the recovery scan.
	RecordsReplayed, CorruptSkipped int
	// Elapsed is the wall time of open + recover + apply.
	Elapsed time.Duration
}

// OpenState attaches a crash-safe state store to the controller: it locks
// dir (failing fast with persist.LockError if another incarnation holds
// it), recovers the newest valid journal record, resumes the
// degradation ladder from the recovered last-good rates, and fences all
// subsequent RPCs with the store's generation. A recovered rate table is
// presumed to be every agent's, so re-asserting it (UpdateRates of
// LastGoodRates) sends each agent a heartbeat at its tag, and only an agent
// that holds another table gets the full table. With no recoverable state
// the controller starts cold but still fenced. Call before the first RPC.
func (c *Controller) OpenState(dir string) (*Recovery, error) {
	return c.openState(dir, 0)
}

// openState is OpenState with a generation floor: the claimed generation
// is at least minGen even if dir's own counter is behind (SiteSet.Promote).
func (c *Controller) openState(dir string, minGen uint64) (*Recovery, error) {
	start := time.Now()
	c.mu.Lock()
	if c.store != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("wan: controller state already open")
	}
	c.mu.Unlock()
	st, err := persist.Open(dir, persist.Options{Metrics: c.Metrics, MinGeneration: minGen})
	if err != nil {
		return nil, err
	}
	rec := &Recovery{Generation: st.Generation()}
	pr := st.Recovered()
	rec.RecordsReplayed = pr.Stats.RecordsReplayed
	rec.CorruptSkipped = pr.Stats.CorruptSkipped
	var state *EpochState
	if pr.Payload != nil {
		var err error
		if state, err = decodeEpochState(pr.Payload); err != nil {
			// A checksum-valid record that does not decode as controller
			// state: treat as cold rather than wedging the restart, but
			// count it — this is a versioning or tampering signal.
			c.Metrics.Counter("wan.recovery.decode_errors").Inc()
		} else {
			rec.Warm = true
			rec.Epoch = state.Epoch
		}
	}
	c.mu.Lock()
	c.store = st
	c.gen = st.Generation()
	if rec.Warm {
		c.epoch = state.Epoch
		if state.Rates != nil {
			// The decode owns state.Rates. Every agent is presumed to hold
			// it; the agents' tag check corrects the presumption.
			t := &rateTable{rates: state.Rates, tag: rateTag(state.Rates)}
			c.lastRates = t
			for _, n := range c.names {
				c.acks[n] = t
			}
		}
		c.lastProbs = append([]float64(nil), state.Probs...)
		c.lastFP = scenario.Fingerprint(state.ScenarioFP)
	}
	c.mu.Unlock()
	rec.Elapsed = time.Since(start)
	c.Metrics.Counter("wan.recovery.runs").Inc()
	if rec.Warm {
		c.Metrics.Counter("wan.recovery.warm").Inc()
	} else {
		c.Metrics.Counter("wan.recovery.cold").Inc()
	}
	c.Metrics.Counter("wan.recovery.records").Add(int64(rec.RecordsReplayed))
	c.Metrics.Counter("wan.recovery.corrupt_skipped").Add(int64(rec.CorruptSkipped))
	c.Metrics.Timer("wan.recovery.time").Observe(rec.Elapsed)
	if rec.Warm {
		c.Log.Addf("recovery warm epoch=%d gen=%d", rec.Epoch, rec.Generation)
	} else {
		c.Log.Addf("recovery cold gen=%d", rec.Generation)
	}
	return rec, nil
}

// Generation returns the controller's fence value (0 = unfenced: no state
// store attached).
func (c *Controller) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Epoch returns the number of epochs journaled by this controller lineage
// (recovered + locally completed).
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// LastProbs returns the calibrated failure-probability vector of the most
// recent journaled (or recovered) epoch, nil if none.
func (c *Controller) LastProbs() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.lastProbs...)
}

// LastScenarioFP returns the scenario-set fingerprint of the most recent
// journaled (or recovered) epoch, 0 if none was recorded.
func (c *Controller) LastScenarioFP() scenario.Fingerprint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastFP
}

// JournalEpoch records the completion of one successful TE epoch: the
// last-good rates, the calibrated probability vector, and the fingerprint
// of the scenario set solved (0 when the caller has none), fsynced into the
// journal before the call returns (the store rotates on its own cadence).
// A probability outside [0, 1] or NaN is refused before anything is
// journaled, as recovery would refuse the record. A nil store makes it a
// no-op — journaling is a write-only side channel, and with StateDir unset
// the controller behaves byte-identically to one without persistence
// compiled in.
func (c *Controller) JournalEpoch(probs []float64, fp scenario.Fingerprint) error {
	c.mu.Lock()
	if c.store == nil {
		c.mu.Unlock()
		return nil
	}
	for i, p := range probs {
		if !(p >= 0 && p <= 1) {
			c.mu.Unlock()
			return fmt.Errorf("wan: journal epoch %d: prob[%d]=%v out of [0,1]", c.epoch+1, i, p)
		}
	}
	c.epoch++
	c.lastProbs = append([]float64(nil), probs...)
	c.lastFP = fp
	rates, ps := c.lastRates, c.lastProbs // both immutable: encoded below without a copy
	st := c.store
	seq := c.epoch
	c.mu.Unlock()

	b, err := encodeEpochState(seq, rates, ps, uint64(fp))
	if err != nil {
		return fmt.Errorf("wan: journal epoch %d: %w", seq, err)
	}
	if err := st.Append(seq, b); err != nil {
		return fmt.Errorf("wan: journal epoch %d: %w", seq, err)
	}
	return nil
}

func copyRates(rates map[string]float64) map[string]float64 {
	if rates == nil {
		return nil
	}
	out := make(map[string]float64, len(rates))
	for k, v := range rates {
		out[k] = v
	}
	return out
}
