package predict

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/tensor"
)

// hashBits is FNV-1a over the bit patterns of every value of ms, in order.
func hashBits(ms ...*tensor.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range ms {
		for _, v := range m.Data {
			h.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(v)))
		}
	}
	return h.Sum64()
}

// TestDDGNNForecastPinned holds the DDGNN to the exact bits it produced
// before the blocked matrix kernel: the forecast of BenchmarkDDGNNPredict's
// fixture and every parameter after BenchmarkDDGNNTrainEpoch's one epoch. A
// change to tensor or nn that moves one bit of either fails here; if the
// change means to, record the new constants and say why.
func TestDDGNNForecastPinned(t *testing.T) {
	const wantForecast, wantParams uint64 = 0xda441fffe49abe80, 0x657575c1c97d222

	m, inputs := predictFixture(t)
	if got := hashBits(m.Predict(inputs)); got != wantForecast {
		t.Errorf("forecast hash %#x, want %#x", got, wantForecast)
	}
	var params []*tensor.Matrix
	for _, p := range trainEpochFixture(t).params.All() {
		params = append(params, p.Val)
	}
	if got := hashBits(params...); got != wantParams {
		t.Errorf("parameter hash after one epoch %#x, want %#x", got, wantParams)
	}
}
