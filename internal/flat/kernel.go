package flat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Rows are scored in blocks of blockRows: the block's code matrix
// (code columns x blockRows uint8) stays L2-resident while every tree
// walks it, and column offsets become simple shifted indices. The
// fixed-size array types below exist so masked indexing provably stays
// in bounds and the hot loops carry no bounds checks.
const (
	blockShift = 12
	blockRows  = 1 << blockShift
	rowMask    = blockRows - 1
)

// seg is one pending node of the per-tree block traversal: the rows of
// the block sitting at node, stored at [lo, hi) of the rows buffer for
// its depth (the read-only identity buffer at depth 0).
type seg struct {
	node   int32
	lo, hi int32
	depth  int32
}

// scratch is the per-worker scoring state, pooled across calls.
type scratch struct {
	codes []uint8               // code columns * blockRows quantized values
	ident *[blockRows]uint32    // 0..blockRows-1, the root's row segment
	rows  [2]*[blockRows]uint32 // ping-pong partition buffers
	acc   *[blockRows]float64   // block accumulator, copied to out
	stack []seg
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(nCols int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if need := nCols << blockShift; cap(sc.codes) < need {
		sc.codes = make([]uint8, need)
	} else {
		sc.codes = sc.codes[:need]
	}
	if sc.ident == nil {
		sc.ident = new([blockRows]uint32)
		for i := range sc.ident {
			sc.ident[i] = uint32(i)
		}
		sc.rows[0] = new([blockRows]uint32)
		sc.rows[1] = new([blockRows]uint32)
		sc.acc = new([blockRows]float64)
	}
	return sc
}

// scoreAll is the shared batch driver. Each block of rows is quantized
// and pushed through every tree, accumulating init + scale*leaf into
// out; post (optional) then finishes the block elementwise. Blocks are
// claimed by workers off a shared counter; per-row results do not
// depend on worker count or claim order, because blocks are disjoint
// and each is computed fully by one worker.
func (e *ensemble) scoreAll(cols [][]float64, out []float64, workers int, init, scale float64, post func([]float64)) error {
	if len(e.trees) == 0 {
		return fmt.Errorf("%w: no trees", ErrNotCompilable)
	}
	if len(cols) != e.nFeatures {
		return fmt.Errorf("%w: %d columns, compiled with %d", ErrShapeMismatch, len(cols), e.nFeatures)
	}
	n := len(out)
	for c, src := range e.q.src {
		// Input columns no tree splits on are never read; they may be
		// short or nil.
		if e.q.cuts[c] != nil && len(cols[src]) < n {
			return fmt.Errorf("%w: column %d has %d rows, out has %d", ErrShapeMismatch, src, len(cols[src]), n)
		}
	}
	if n == 0 {
		return nil
	}
	nBlocks := (n + blockRows - 1) >> blockShift
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 {
		sc := getScratch(len(e.q.keys))
		for b := 0; b < nBlocks; b++ {
			e.scoreBlock(cols, out, b, init, scale, post, sc)
		}
		scratchPool.Put(sc)
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getScratch(len(e.q.keys))
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					break
				}
				e.scoreBlock(cols, out, b, init, scale, post, sc)
			}
			scratchPool.Put(sc)
		}()
	}
	wg.Wait()
	return nil
}

// scoreBlock scores block b, rows [b<<blockShift, ...+bn).
func (e *ensemble) scoreBlock(cols [][]float64, out []float64, b int, init, scale float64, post func([]float64), sc *scratch) {
	lo := b << blockShift
	bn := len(out) - lo
	if bn > blockRows {
		bn = blockRows
	}
	e.q.quantizeBlock(cols, lo, bn, sc.codes)
	acc := sc.acc[:bn]
	for i := range acc {
		acc[i] = init
	}
	for ti := range e.trees {
		e.trees[ti].scoreBlockAdd(sc, bn, scale)
	}
	if post != nil {
		post(acc)
	}
	copy(out[lo:lo+bn], acc)
}

// quantizeBlock fills codes with the cut indices of rows [lo, lo+bn)
// for every code column that has cuts. The search counts cuts < v over the
// +Inf-padded key array. The `d = 1` select compiles to a flag
// materialization (SETcc) rather than a branch, so the search carries
// no data-dependent branches (binary-search branches are inherently
// ~50% mispredicted); it is four-way interleaved because one value's
// loop is a serial chain of dependent loads, and four independent
// chains in flight hide most of that latency. NaN compares false
// against every key, lands on 0, and is overwritten with missingCode.
func (q *quantizer) quantizeBlock(cols [][]float64, lo, bn int, codes []uint8) {
	for c, keys := range q.keys {
		if keys == nil {
			continue
		}
		col := cols[q.src[c]][lo : lo+bn]
		dst := (*[blockRows]uint8)(codes[c<<blockShift : c<<blockShift+blockRows])
		searchColumn(keys, q.startStep[c], col, dst)
		fixupMissing(col, dst)
	}
}

// searchColumn runs the count-of-smaller search for one code column. NaN compares false against every key and lands on code 0;
// fixupMissing rewrites it afterwards, keeping this loop free of the
// extra live values. Lives in its own function so every chain stays in
// registers (see partition).
func searchColumn(keys *[256]float64, start int32, col []float64, dst *[blockRows]uint8) {
	bn := len(col)
	i := 0
	for ; i+4 <= bn; i += 4 {
		v0, v1, v2, v3 := col[i], col[i+1], col[i+2], col[i+3]
		var x0, x1, x2, x3 int32
		for step := start; step > 0; step >>= 1 {
			s1 := step - 1
			var d0, d1, d2, d3 int32
			if keys[(x0+s1)&255] < v0 {
				d0 = 1
			}
			if keys[(x1+s1)&255] < v1 {
				d1 = 1
			}
			if keys[(x2+s1)&255] < v2 {
				d2 = 1
			}
			if keys[(x3+s1)&255] < v3 {
				d3 = 1
			}
			x0 += step & -d0
			x1 += step & -d1
			x2 += step & -d2
			x3 += step & -d3
		}
		dst[i&rowMask] = uint8(x0)
		dst[(i+1)&rowMask] = uint8(x1)
		dst[(i+2)&rowMask] = uint8(x2)
		dst[(i+3)&rowMask] = uint8(x3)
	}
	for ; i < bn; i++ {
		v := col[i]
		idx := int32(0)
		for step := start; step > 0; step >>= 1 {
			var d int32
			if keys[(idx+step-1)&255] < v {
				d = 1
			}
			idx += step & -d
		}
		dst[i&rowMask] = uint8(idx)
	}
}

// fixupMissing rewrites NaN rows' codes to missingCode. The branch is
// almost always not-taken and predicts well, unlike a compare folded
// into the search chains.
func fixupMissing(col []float64, dst *[blockRows]uint8) {
	for i, v := range col {
		if v != v {
			dst[i&rowMask] = missingCode
		}
	}
}

// scoreBlockAdd adds scale*leafValue to sc.acc[r] for each of the
// block's bn rows by partitioning the row set down the tree: every
// node's constants load once per block, each row costs a handful of
// integer ops per level, and rows stop paying as soon as their segment
// reaches a leaf. The two-cursor partition writes every row to both
// cursors and advances exactly one, so the loop is branch-free; the
// right half ends up reversed, which is irrelevant because row order
// within a segment never affects results (each row's accumulation
// order across trees is fixed by the outer tree loop).
func (t *flatTree) scoreBlockAdd(sc *scratch, bn int, scale float64) {
	stack := sc.stack[:0]
	stack = append(stack, seg{node: 0, lo: 0, hi: int32(bn)})
	codes := sc.codes
	acc := sc.acc
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		src := sc.ident
		if s.depth > 0 {
			src = sc.rows[(s.depth-1)&1]
		}
		nd := s.node
		fo := t.featOff[nd]
		if fo < 0 {
			accumulate(acc, src, s.lo, s.hi, scale*t.value[nd])
			continue
		}
		colCodes := (*[blockRows]uint8)(codes[fo : fo+blockRows])
		sb1 := uint32(t.bin[nd]) + 1
		l := t.left[nd]
		ml := t.missL[nd]
		// Nodes whose children are both leaves — where most rows end up —
		// skip the write-out/re-read round trip and add straight into the
		// accumulator.
		if t.featOff[l] < 0 && t.featOff[l+1] < 0 {
			vl := scale * t.value[l]
			vr := scale * t.value[l+1]
			if ml == 0 {
				partitionLeafLeaf(src, colCodes, acc, s.lo, s.hi, sb1, vl, vr)
			} else {
				partitionLeafLeafMissL(src, colCodes, acc, s.lo, s.hi, sb1, vl, vr)
			}
			continue
		}
		dst := sc.rows[s.depth&1]
		var wl int32
		switch {
		case s.depth == 0:
			// The root's source is the identity permutation; rows are
			// their own indices and the src load disappears.
			if ml == 0 {
				wl = partitionRoot(dst, colCodes, s.lo, s.hi, sb1)
			} else {
				wl = partitionRootMissL(dst, colCodes, s.lo, s.hi, sb1)
			}
		case ml == 0:
			wl = partition(src, dst, colCodes, s.lo, s.hi, sb1)
		default:
			wl = partitionMissL(src, dst, colCodes, s.lo, s.hi, sb1)
		}
		d := s.depth + 1
		if wl < s.hi {
			stack = append(stack, seg{node: l + 1, lo: wl, hi: s.hi, depth: d})
		}
		if wl > s.lo {
			stack = append(stack, seg{node: l, lo: s.lo, hi: wl, depth: d})
		}
	}
	sc.stack = stack
}

// partition splits src[lo:hi] into dst: rows whose code on this node's
// feature is <= bin (sb1 = bin+1) go to the front in order, the rest
// fill from the back (reversed — harmless, segment order never affects
// results). Each row is written exactly once, to the left cursor or
// the top-down right cursor, chosen by conditional move; exactly one
// cursor then advances, so the loop is branch-free. These loops live
// in their own functions so the register allocator isn't fighting the
// traversal state in scoreBlockAdd; they are deliberately small enough
// to keep every live value in registers.
func partition(src, dst *[blockRows]uint32, colCodes *[blockRows]uint8, lo, hi int32, sb1 uint32) int32 {
	// Touch each array once so the nil checks run here instead of every
	// iteration.
	_, _, _ = src[0], dst[0], colCodes[0]
	wl, wr1 := lo, hi-1
	k := lo
	for ; k+2 <= hi; k += 2 {
		r0 := src[k&rowMask]
		c0 := uint32(colCodes[r0&rowMask])
		gl0 := (c0 - sb1) >> 31 // 1 iff code <= bin
		idx0 := wr1
		if gl0 != 0 {
			idx0 = wl
		}
		r1 := src[(k+1)&rowMask]
		dst[idx0&rowMask] = r0
		wl += int32(gl0)
		wr1 += int32(gl0) - 1
		c1 := uint32(colCodes[r1&rowMask])
		gl1 := (c1 - sb1) >> 31
		idx1 := wr1
		if gl1 != 0 {
			idx1 = wl
		}
		dst[idx1&rowMask] = r1
		wl += int32(gl1)
		wr1 += int32(gl1) - 1
	}
	if k < hi {
		r := src[k&rowMask]
		c := uint32(colCodes[r&rowMask])
		gl := (c - sb1) >> 31
		idx := wr1
		if gl != 0 {
			idx = wl
		}
		dst[idx&rowMask] = r
		wl += int32(gl)
	}
	return wl
}

// accumulate adds v to acc[r] for every row r in src[lo:hi] (a leaf's
// segment).
func accumulate(acc *[blockRows]float64, src *[blockRows]uint32, lo, hi int32, v float64) {
	for k := lo; k < hi; k++ {
		acc[src[k&rowMask]&rowMask] += v
	}
}

// partitionMissL is partition for nodes routing missing (code 255)
// left.
func partitionMissL(src, dst *[blockRows]uint32, colCodes *[blockRows]uint8, lo, hi int32, sb1 uint32) int32 {
	wl, wr1 := lo, hi-1
	for k := lo; k < hi; k++ {
		r := src[k&rowMask]
		c := uint32(colCodes[r&rowMask])
		// 1 iff code <= bin or code == 255.
		gl := ((c - sb1) >> 31) | (((c ^ missingCode) - 1) >> 31)
		idx := wr1
		if gl != 0 {
			idx = wl
		}
		dst[idx&rowMask] = r
		wl += int32(gl)
		wr1 += int32(gl) - 1
	}
	return wl
}

// partitionRoot is partition at depth 0, where the source permutation
// is the identity and rows are their own indices.
func partitionRoot(dst *[blockRows]uint32, colCodes *[blockRows]uint8, lo, hi int32, sb1 uint32) int32 {
	wl, wr1 := lo, hi-1
	for k := lo; k < hi; k++ {
		c := uint32(colCodes[k&rowMask])
		gl := (c - sb1) >> 31
		idx := wr1
		if gl != 0 {
			idx = wl
		}
		dst[idx&rowMask] = uint32(k)
		wl += int32(gl)
		wr1 += int32(gl) - 1
	}
	return wl
}

// partitionRootMissL is partitionRoot for nodes routing missing left.
func partitionRootMissL(dst *[blockRows]uint32, colCodes *[blockRows]uint8, lo, hi int32, sb1 uint32) int32 {
	wl, wr1 := lo, hi-1
	for k := lo; k < hi; k++ {
		c := uint32(colCodes[k&rowMask])
		gl := ((c - sb1) >> 31) | (((c ^ missingCode) - 1) >> 31)
		idx := wr1
		if gl != 0 {
			idx = wl
		}
		dst[idx&rowMask] = uint32(k)
		wl += int32(gl)
		wr1 += int32(gl) - 1
	}
	return wl
}

// partitionLeafLeaf resolves a node whose children are both leaves:
// instead of materializing the two child segments it adds the chosen
// leaf's value directly into the accumulator. The select runs on the
// value's bits because integer conditional moves compile branch-free
// while float selects do not.
func partitionLeafLeaf(src *[blockRows]uint32, colCodes *[blockRows]uint8, acc *[blockRows]float64, lo, hi int32, sb1 uint32, vl, vr float64) {
	bl, br := math.Float64bits(vl), math.Float64bits(vr)
	for k := lo; k < hi; k++ {
		r := src[k&rowMask]
		c := uint32(colCodes[r&rowMask])
		gl := (c - sb1) >> 31
		b := br
		if gl != 0 {
			b = bl
		}
		acc[r&rowMask] += math.Float64frombits(b)
	}
}

// partitionLeafLeafMissL is partitionLeafLeaf for nodes routing missing
// left.
func partitionLeafLeafMissL(src *[blockRows]uint32, colCodes *[blockRows]uint8, acc *[blockRows]float64, lo, hi int32, sb1 uint32, vl, vr float64) {
	bl, br := math.Float64bits(vl), math.Float64bits(vr)
	for k := lo; k < hi; k++ {
		r := src[k&rowMask]
		c := uint32(colCodes[r&rowMask])
		gl := ((c - sb1) >> 31) | (((c ^ missingCode) - 1) >> 31)
		b := br
		if gl != 0 {
			b = bl
		}
		acc[r&rowMask] += math.Float64frombits(b)
	}
}
