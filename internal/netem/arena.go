package netem

import (
	"reorder/internal/sim"
)

const (
	arenaFrameBlock = 512       // frames per block
	arenaViewBlock  = 512       // frame views per block
	arenaByteBlock  = 128 << 10 // bytes per slab
)

// Arena is a bump allocator for the two object kinds the packet fast path
// churns through: Frames and the datagram bytes they carry. Blocks are
// retained across Reset, so a reused scenario reaches a steady state where
// transmitting a datagram allocates nothing.
//
// Lifetime contract: everything an Arena hands out is valid until the next
// Reset. Scenario owners (internal/simnet) reset the arena only when the
// whole scenario is torn down and rebuilt, at which point no frame or
// capture from the previous run is reachable.
//
// A nil *Arena is valid and falls back to the garbage collector, so network
// elements and stacks work unchanged outside arena-managed scenarios.
type Arena struct {
	frameBlocks [][]Frame
	frameBlock  int // index of the block being filled
	frameUsed   int // frames used in that block

	viewBlocks [][]FrameView
	viewBlock  int
	viewUsed   int

	byteBlocks [][]byte
	byteBlock  int
	byteUsed   int

	materialized uint64 // lazy wire-byte encodes since the last Reset
}

// Materialized returns how many frames materialized wire bytes from their
// view since the last Reset — the count of times the zero-copy fast path
// had to fall back to encoding octets.
func (a *Arena) Materialized() uint64 {
	if a == nil {
		return 0
	}
	return a.materialized
}

// NewFrame returns a frame initialized with the given fields, allocated
// from the arena (or the heap when a is nil). The data slice is stored as
// given; use CopyBytes first if the caller reuses its buffer.
func (a *Arena) NewFrame(id uint64, data []byte, born sim.Time) *Frame {
	if a == nil {
		return &Frame{ID: id, Data: data, Born: born}
	}
	if a.frameBlock >= len(a.frameBlocks) {
		a.frameBlocks = append(a.frameBlocks, make([]Frame, arenaFrameBlock))
	}
	block := a.frameBlocks[a.frameBlock]
	f := &block[a.frameUsed]
	a.frameUsed++
	if a.frameUsed == len(block) {
		a.frameBlock++
		a.frameUsed = 0
	}
	f.ID, f.Data, f.Born = id, data, born
	f.view, f.arena = nil, a
	f.dst, f.wireLen = 0, 0
	return f
}

// newView returns a zero-initialized-enough view cell; the builders in
// view.go overwrite every field a consumer may read.
func (a *Arena) newView() *FrameView {
	if a == nil {
		return &FrameView{}
	}
	if a.viewBlock >= len(a.viewBlocks) {
		a.viewBlocks = append(a.viewBlocks, make([]FrameView, arenaViewBlock))
	}
	block := a.viewBlocks[a.viewBlock]
	v := &block[a.viewUsed]
	a.viewUsed++
	if a.viewUsed == len(block) {
		a.viewBlock++
		a.viewUsed = 0
	}
	return v
}

// Alloc returns an empty arena-owned byte slice with capacity n, for
// callers that encode directly into arena storage (Frame.Materialize).
func (a *Arena) Alloc(n int) []byte {
	if a == nil {
		return make([]byte, 0, n)
	}
	if a.byteBlock >= len(a.byteBlocks) || a.byteUsed+n > len(a.byteBlocks[a.byteBlock]) {
		a.nextByteBlock(n)
	}
	block := a.byteBlocks[a.byteBlock]
	c := block[a.byteUsed : a.byteUsed : a.byteUsed+n]
	a.byteUsed += n
	return c
}

// CopyBytes copies b into arena-owned storage and returns the copy. The
// caller may immediately reuse b; the copy lives until Reset.
func (a *Arena) CopyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append(a.Alloc(len(b)), b...)
}

// nextByteBlock advances to a block with at least n free bytes, reusing
// retained blocks and allocating (oversized if needed) otherwise.
func (a *Arena) nextByteBlock(n int) {
	if a.byteBlock < len(a.byteBlocks) {
		a.byteBlock++
	}
	for a.byteBlock < len(a.byteBlocks) {
		if n <= len(a.byteBlocks[a.byteBlock]) {
			a.byteUsed = 0
			return
		}
		a.byteBlock++ // retained block too small for this datagram
	}
	size := arenaByteBlock
	if n > size {
		size = n
	}
	a.byteBlocks = append(a.byteBlocks, make([]byte, size))
	a.byteBlock = len(a.byteBlocks) - 1
	a.byteUsed = 0
}

// Reset rewinds the arena, keeping every block for reuse. All frames and
// byte slices previously handed out become invalid.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.frameBlock, a.frameUsed = 0, 0
	a.viewBlock, a.viewUsed = 0, 0
	a.byteBlock, a.byteUsed = 0, 0
	a.materialized = 0
}
