package core

// GibbsScratch is the reusable construction state of Gibbs samplers: the
// backings of the latent-move lists. A steady-state caller that constructs
// a sampler per pass — StEM followed by the posterior pass on every window
// — hands the same scratch to every construction via EMOptions.Scratch /
// PosteriorOptions.Scratch and pays no per-pass move-list allocations once
// the backings have grown to size. The chain is bit-identical with or
// without a scratch.
//
// A scratch serializes the samplers built from it: constructing a new
// sampler overwrites the move lists that any previous sampler from the
// same scratch still references, so never sweep a stale sampler (e.g.
// EMResult.Sampler) after the scratch has been reused, and never share one
// scratch between concurrent samplers. The zero value is ready to use.
type GibbsScratch struct {
	arrivalMoves, departMoves []int
}

// resizeI32 returns b with length n (contents unspecified), reusing its
// backing array when capacity allows.
func resizeI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// zeroI32 returns b resized to n zeroed entries, reusing its backing array.
func zeroI32(b []int32, n int) []int32 {
	b = resizeI32(b, n)
	clear(b)
	return b
}
