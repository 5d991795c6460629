package optical

import "sort"

// ScriptStep is one segment of a VOA replay script.
type ScriptStep struct {
	AtS      int     // seconds from script start
	ExcessDB float64 // attenuation to insert from this instant
}

// Script is a time-ordered attenuation schedule for the variable optical
// attenuator (VOA) the §5 testbed inserts between sites s1 and s2 "to allow
// us to manually adjust the power of the optical signal passing through
// it". Attenuation set on the VOA appears as excess loss on the fiber it is
// spliced into.
type Script []ScriptStep

// TestbedScript reproduces the §5 scenario: healthy for 0-65 s, degraded
// (6 dB) for 65-110 s, cut (30 dB) for 110-400 s, then repaired.
func TestbedScript() Script {
	return Script{
		{AtS: 0, ExcessDB: 0},
		{AtS: 65, ExcessDB: 6},
		{AtS: 110, ExcessDB: 30},
		{AtS: 400, ExcessDB: 0},
	}
}

// At returns the attenuation in force at second t.
func (s Script) At(t int) float64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].AtS > t })
	if i == 0 {
		return 0
	}
	return s[i-1].ExcessDB
}

// Replay generates the fiber's loss series under the script, sampling once
// per second for the script's whole horizon (the last step's time).
func (s Script) Replay(f *FiberSim, t0 int64) []Sample {
	if len(s) == 0 {
		return nil
	}
	horizon := s[len(s)-1].AtS + 1
	out := make([]Sample, horizon)
	for t := 0; t < horizon; t++ {
		out[t] = f.sample(t0+int64(t), s.At(t), false)
	}
	return out
}
