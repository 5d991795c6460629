package ingest

import (
	"fmt"
	"math"
	"testing"

	"prete/internal/optical"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

// fuzzNet is the tiny three-fiber topology every FuzzIngest input runs
// against; built once since the pipeline never mutates it.
func fuzzNet(tb testing.TB) *topology.Network {
	tb.Helper()
	net, err := topology.New("fuzz",
		[]topology.Node{{ID: 0, Name: "a"}, {ID: 1, Name: "b"}, {ID: 2, Name: "c"}},
		[]topology.Fiber{
			{ID: 0, A: 0, B: 1, LengthKm: 120, Region: "r1", Vendor: "v1"},
			{ID: 1, A: 1, B: 2, LengthKm: 300, Region: "r2", Vendor: "v2"},
			{ID: 2, A: 0, B: 2, LengthKm: 80, Region: "r1", Vendor: "v2"},
		},
		[]topology.Link{
			{ID: 0, Src: 0, Dst: 1, Capacity: 100, Fibers: []topology.FiberID{0}},
			{ID: 1, Src: 1, Dst: 2, Capacity: 100, Fibers: []topology.FiberID{1}},
			{ID: 2, Src: 0, Dst: 2, Capacity: 100, Fibers: []topology.FiberID{2}},
		})
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// FuzzIngest feeds arbitrary — malformed, out-of-order, duplicate-
// timestamp, gappy, non-finite — sample series through the streaming
// pipeline at one sample per tick, at a fuzz-chosen chunking, and in one
// tick. The pipeline must never panic and must agree with the batch replay
// (telemetry.ProcessBatch) at every chunking. ringCap, drain and flushEvery
// are unused; they keep the committed corpus decodable.
func FuzzIngest(f *testing.F) {
	f.Add([]byte{}, uint8(2), uint8(3), uint8(8), uint8(1), uint8(4))
	// a clean degradation episode on fiber 0
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 50, 0, 1, 50, 0, 1, 50, 0, 1, 0, 0}, uint8(2), uint8(2), uint8(16), uint8(0), uint8(1))
	// missing samples and an abrupt cut, duplicate timestamps (dt=0)
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 1, 200, 0, 2, 0, 200, 0}, uint8(3), uint8(4), uint8(4), uint8(2), uint8(2))
	// out-of-order timestamps (negative dt) across all three fibers
	f.Add([]byte{1, 255, 60, 0, 0, 1, 30, 0, 2, 129, 90, 1, 1, 255, 60, 0}, uint8(1), uint8(5), uint8(2), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, confirm, window, _, _, _ uint8) {
		net := fuzzNet(t)
		// Decode: each 4-byte group is one sample — fiber selector, signed
		// time delta (out-of-order and duplicate timestamps allowed), excess
		// loss in tenths of a dB (252..255 map to huge/NaN/Inf values), and
		// a missing-sample flag.
		series := []telemetry.FiberSeries{{Fiber: 0}, {Fiber: 1}, {Fiber: 2}}
		ts := []int64{1000, 1000, 1000}
		for i := 0; i+3 < len(data) && i < 4*512; i += 4 {
			fi := int(data[i]) % 3
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
		conf := int(confirm%8) + 1

		// The stream must equal the batch replay byte for byte at every
		// chunking (NaN prints identically, so compare the printed form).
		want, errB := telemetry.ProcessBatch(net, series, conf)
		whole := max(len(series[0].Samples), len(series[1].Samples), len(series[2].Samples), 1)
		for _, perTick := range []int{1, int(window%16) + 1, whole} {
			cfg := DefaultConfig()
			cfg.ConfirmSamples = conf
			p, err := New(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, errS := streamChunked(t, p, series, perTick)
			if (errS == nil) != (errB == nil) {
				t.Fatalf("perTick=%d: error disagreement: batch=%v stream=%v", perTick, errB, errS)
			}
			if errS != nil {
				return
			}
			if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("perTick=%d: stream diverges from batch replay:\nstream: %v\nbatch:  %v", perTick, got, want)
			}
		}
	})
}
