package nn

import (
	"slices"
	"sync"
	"testing"

	"sov/internal/parallel"
)

// TestShareCloneOwnsItsBuffers holds the owned-buffer contract at the model
// level: two ShareClones of one QYOLOHead, forwarded from two goroutines at
// once (run it under -race), each return the bytes a lone clone returns,
// single and batched; and a warm clone's next forward allocates nothing.
func TestShareCloneOwnsItsBuffers(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	master := QuantizeYOLO(NewTinyYOLO(32, 32, 2, 5), calibInput(1, 32, 32, 3))
	inputs := []*Tensor{calibInput(1, 32, 32, 11), calibInput(1, 32, 32, 29), calibInput(1, 32, 32, 47)}
	// A warm master: a clone that kept its buffers would share them.
	master.ForwardRaw(inputs[0])
	master.ForwardRawBatch(inputs)
	lone := master.ShareClone()
	want := make([][]int8, len(inputs))
	for i, in := range inputs {
		want[i] = slices.Clone(lone.ForwardRaw(in).Data)
	}

	clones := []*QYOLOHead{master.ShareClone(), master.ShareClone()}
	var wg sync.WaitGroup
	for g, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				i := (g + pass) % len(inputs)
				if got := c.ForwardRaw(inputs[i]); !slices.Equal(got.Data, want[i]) {
					t.Errorf("clone %d pass %d: ForwardRaw of input %d differs from a lone clone's", g, pass, i)
				}
				for j, raw := range c.ForwardRawBatch(inputs) {
					if !slices.Equal(raw.Data, want[j]) {
						t.Errorf("clone %d pass %d: batch image %d differs from a lone clone's", g, pass, j)
					}
				}
			}
		}()
	}
	wg.Wait()

	c := clones[0]
	if avg := testing.AllocsPerRun(10, func() { c.ForwardRaw(inputs[0]) }); avg > 0 {
		t.Errorf("warm ForwardRaw on a clone allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { c.ForwardRawBatch(inputs) }); avg > 0 {
		t.Errorf("warm ForwardRawBatch on a clone allocates %.1f times, want 0", avg)
	}
}
