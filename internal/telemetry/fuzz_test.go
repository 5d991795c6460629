package telemetry

import (
	"math"
	"testing"

	"prete/internal/optical"
	"prete/internal/topology"
)

// fuzzNet is the tiny two-fiber topology every FuzzProcessBatch input runs
// against; built once since the batch pipeline never mutates it.
func fuzzNet(tb testing.TB) *topology.Network {
	tb.Helper()
	net, err := topology.New("fuzz",
		[]topology.Node{{ID: 0, Name: "a"}, {ID: 1, Name: "b"}, {ID: 2, Name: "c"}},
		[]topology.Fiber{
			{ID: 0, A: 0, B: 1, LengthKm: 120, Region: "r1", Vendor: "v1"},
			{ID: 1, A: 1, B: 2, LengthKm: 300, Region: "r2", Vendor: "v2"},
		},
		[]topology.Link{
			{ID: 0, Src: 0, Dst: 1, Capacity: 100, Fibers: []topology.FiberID{0}},
			{ID: 1, Src: 1, Dst: 2, Capacity: 100, Fibers: []topology.FiberID{1}},
		})
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// FuzzProcessBatch feeds arbitrary — malformed, out-of-order, gappy,
// non-finite — telemetry series through the full batch pipeline
// (interpolation, detection, feature extraction). The pipeline must never
// panic, must return one row per series, and every event's features must
// name the fiber they were extracted for.
func FuzzProcessBatch(f *testing.F) {
	f.Add([]byte{}, 2)
	// a clean degradation episode on fiber 0
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 50, 0, 1, 50, 0, 1, 50, 0, 1, 0, 0}, 2)
	// missing samples and an abrupt cut
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 1, 200, 0, 1, 200, 0}, 3)
	// out-of-order timestamps (negative dt) across both fibers
	f.Add([]byte{1, 255, 60, 0, 0, 1, 30, 0, 1, 129, 90, 1}, 1)
	f.Fuzz(func(t *testing.T, data []byte, confirm int) {
		net := fuzzNet(t)
		// Decode: each 4-byte group is one sample — fiber selector, signed
		// time delta (out-of-order and duplicate timestamps allowed), excess
		// loss in tenths of a dB (240..255 map to huge/NaN/Inf values), and
		// a missing-sample flag.
		series := []FiberSeries{{Fiber: 0}, {Fiber: 1}}
		ts := []int64{1000, 1000}
		for i := 0; i+3 < len(data) && i < 4*512; i += 4 {
			fi := int(data[i]) % 2
			ts[fi] += int64(int8(data[i+1]))
			excess := float64(data[i+2]) / 10
			switch data[i+2] {
			case 255:
				excess = math.NaN()
			case 254:
				excess = math.Inf(1)
			case 253:
				excess = math.Inf(-1)
			case 252:
				excess = -50 // below any baseline
			}
			loss := excess + 20
			series[fi].Samples = append(series[fi].Samples, optical.Sample{
				UnixS:    ts[fi],
				TxDBm:    3,
				RxDBm:    3 - loss,
				LossDB:   loss,
				ExcessDB: excess,
				State:    optical.Classify(excess),
				Missing:  data[i+3]%2 == 1,
			})
		}
		out, err := ProcessBatch(net, series, confirm)
		if err != nil {
			return
		}
		if len(out) != len(series) {
			t.Fatalf("got %d result rows for %d series", len(out), len(series))
		}
		for fi, evs := range out {
			for ei, ev := range evs {
				if ev.HasFeatures && ev.Features.FiberID != series[fi].Fiber {
					t.Fatalf("fiber %d event %d carries features for fiber %d", fi, ei, ev.Features.FiberID)
				}
			}
		}
	})
}
