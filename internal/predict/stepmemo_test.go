package predict

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// firstDiff returns the first index where got and want differ in their bits,
// or -1.
func firstDiff(got, want *tensor.Matrix) int {
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			return i
		}
	}
	return -1
}

// TestStepMemoMatchesColdForward: each Predict of the three graph models goes
// through the model's trunk memo and equals the memo-free full-sequence
// forward bit for bit, over a window sequence covering every way a memo can
// go stale — slides, a repeat, a skip, a jump, all-zero windows (every shift
// matches), a vector rewritten in one bit (a late task) and a Fit. The memo
// also does only the work it must. A steady slide costs one lift and one step
// per layer, a repeat nothing, and a late task recomputes only the steps whose
// receptive field covers the rewritten vector, beside the new step's.
func TestStepMemoMatchesColdForward(t *testing.T) {
	const cells, k, n = 5, 3, 8
	const cold = "[[1 2 3 4 5 6 7] [3 5 7] [7]]" // the receptive field of step 7
	r := rand.New(rand.NewSource(47))
	series := randomWindow(r, cells, k, 60)
	slide := func(i int) []*tensor.Matrix { return series[i : i+n] }
	zeros := randomWindow(r, cells, k, n)
	for _, z := range zeros {
		z.Zero()
	}
	late := append([]*tensor.Matrix(nil), slide(37)...)
	late[2] = late[2].Clone()
	late[2].Data[4] = math.Float64frombits(math.Float64bits(late[2].Data[4]) ^ 1)

	type call struct {
		name   string
		window []*tensor.Matrix
		fit    bool
		work   string // the steps evaluated per level, "" when not checked
	}
	calls := []call{{name: "first", window: slide(0), work: cold}}
	for i := 1; i <= 20; i++ {
		c := call{name: fmt.Sprintf("slide to %d", i), window: slide(i)}
		if i >= 3 { // the first two slides fill in the even steps of level 1
			c.work = "[[7] [7] [7]]"
		}
		calls = append(calls, c)
	}
	calls = append(calls,
		call{name: "repeat", window: slide(20), work: "[[] [] []]"},
		call{name: "skip by 3", window: slide(23), work: "[[5 6 7] [5 7] [7]]"},
		call{name: "jump", window: randomWindow(r, cells, k, n), work: cold},
		call{name: "all zero", window: zeros},
		call{name: "all zero again", window: zeros, work: "[[] [] []]"},
	)
	for i := 30; i <= 36; i++ {
		calls = append(calls, call{name: fmt.Sprintf("slide to %d", i), window: slide(i)})
	}
	calls = append(calls,
		// Level 1 at 3 reads inputs 1–3 and is recomputed, with lift 2
		// under it; level 1 at 5 (inputs 3–5) is carried.
		call{name: "late task", window: late, work: "[[2 7] [3 7] [7]]"},
		call{name: "slide after the late task", window: slide(38)},
		call{name: "fit", window: slide(39), fit: true, work: cold},
	)
	for i := 40; i <= 45; i++ {
		calls = append(calls, call{name: fmt.Sprintf("slide to %d after fit", i), window: slide(i)})
	}

	train := windowsFrom(series[:20], n)[:3]
	for _, m := range graphModels(cells, k, TrainConfig{Epochs: 1, Seed: 3}) {
		for _, c := range calls {
			if c.fit {
				m.Fit(train)
			}
			got, want := m.Predict(c.window), m.full(c.window).Val
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s, %s: probability %d is %v, cold forward %v", m.Name(), c.name, i, got.Data[i], want.Data[i])
			}
			if work := fmt.Sprint(m.memo.Evaluated()); c.work != "" && work != c.work {
				t.Errorf("%s, %s: evaluated steps %s by level, want %s", m.Name(), c.name, work, c.work)
			}
		}
	}
}

// TestStepMemoConcurrentStreams: two goroutines slide along two different
// series through one DDGNN. The model's lock serializes its memo, so every
// forecast is the cold forward's, bit for bit; under -race the lock's
// coverage is checked too.
func TestStepMemoConcurrentStreams(t *testing.T) {
	const cells, k, n = 5, 3, 8
	m := graphModels(cells, k, TrainConfig{Seed: 9})[0]
	r := rand.New(rand.NewSource(53))
	var streams [2][]*tensor.Matrix
	var want [2][]*tensor.Matrix
	for s := range streams {
		streams[s] = randomWindow(r, cells, k, 40)
		for i := 0; i+n <= len(streams[s]); i++ {
			want[s] = append(want[s], m.full(streams[s][i:i+n]).Val)
		}
	}
	var wg sync.WaitGroup
	for s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range want[s] {
				if j := firstDiff(m.Predict(streams[s][i:i+n]), w); j >= 0 {
					t.Errorf("stream %d, window %d: probability %d differs from the cold forward", s, i, j)
					return
				}
			}
		}()
	}
	wg.Wait()
}
