package ir

// Module storage. Parse and Builder give a module the same layout: its
// instructions, blocks and integer and float constants live in chunks,
// and every list hanging off them (an instruction's Args and Blocks, a
// block's Instrs) is a capacity-limited window s[i:j:j] of a shared
// chunk. An append to one list therefore reallocates it and never
// writes into a neighbour's. A value that outlives its module keeps its
// whole chunk alive; modules are cached whole, so that costs nothing in
// practice.

// Chunk capacities double from minChunk up to maxChunk elements, so a
// small module wastes little and a large one allocates rarely.
const (
	minChunk = 16
	maxChunk = 256
)

// carve reserves n zeroed elements at the end of *chunk, starting a new
// chunk when the current one lacks room, and returns them as a
// capacity-limited window; nil when n is 0.
func carve[T any](chunk *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(min(2*cap(c), maxChunk), minChunk, n))
	}
	i := len(c)
	c = c[:i+n]
	*chunk = c
	return c[i : i+n : i+n]
}

// constPool hands out integer and float constants from chunks.
type constPool struct {
	ints   []ConstInt
	floats []ConstFloat
}

func (cp *constPool) intConst(v int64, t IntType) *ConstInt {
	c := &carve(&cp.ints, 1)[0]
	c.Val, c.T = v, t
	return c
}

func (cp *constPool) floatConst(v float64, t FloatType) *ConstFloat {
	c := &carve(&cp.floats, 1)[0]
	c.Val, c.T = v, t
	return c
}
