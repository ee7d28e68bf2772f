package set

import (
	"bytes"
	"fmt"
)

// This file is the set package's single public entry point for pairwise
// set operations. Earlier revisions exposed three overlapping call
// families (Intersect/IntersectCfg/IntersectBuf plus per-layout free
// functions); they are collapsed into one layout-polymorphic Kernel
// constructed from a Config. A Kernel dispatches on the operand layouts
// (the mixed-intersection matrix of §4.2) and, when built with
// NewCountingKernel, tallies every dispatch decision by Route so the
// execution engine can report which kernels actually ran.

// Route identifies one cell of the kernel dispatch matrix: the operand
// layout pair plus, for uint∩uint, the algorithm the skew rule selected.
type Route uint8

const (
	// RouteUintMerge is uint∩uint via the textbook scalar two-pointer
	// merge (the "-RA" baseline algorithm).
	RouteUintMerge Route = iota
	// RouteUintShuffle is uint∩uint via the block-skipping shuffle merge
	// with branch-free inner loops (the SIMD-shuffle stand-in).
	RouteUintShuffle
	// RouteUintGallop is uint∩uint via galloping (cardinality skew).
	RouteUintGallop
	// RouteUintBitset probes uint keys into bitset words.
	RouteUintBitset
	// RouteBitsetWord is bitset∩bitset via word-parallel AND + popcount.
	RouteBitsetWord
	// RouteBlockBlock is composite∩composite via block-aligned merge
	// (word-parallel on dense blocks).
	RouteBlockBlock
	// RouteMixedProbe is the mixed composite/other fallback: the smaller
	// side probes the larger.
	RouteMixedProbe
	// NumRoutes bounds the Route enum (array-indexed counters).
	NumRoutes
)

var routeNames = [NumRoutes]string{
	"uint-merge", "uint-shuffle", "uint-gallop",
	"uint-bitset", "bitset-bitset", "block-block", "mixed-probe",
}

// String returns the stable route name used in EXPLAIN ANALYZE output
// and stats JSON.
func (r Route) String() string {
	if int(r) < len(routeNames) {
		return routeNames[r]
	}
	return fmt.Sprintf("Route(%d)", uint8(r))
}

// WordParallel reports whether the route executes word-parallel dense
// operations (64 members per machine-word op) rather than per-key
// scalar work.
func (r Route) WordParallel() bool {
	return r == RouteBitsetWord || r == RouteBlockBlock
}

// KernelStats counts kernel invocations by dispatch route. It is filled
// by a counting kernel (one per worker per loop level in the execution
// engine — no atomics) and merged with Add after the workers drain.
type KernelStats struct {
	Counts [NumRoutes]int64
}

// Add folds o into st.
func (st *KernelStats) Add(o *KernelStats) {
	for i := range st.Counts {
		st.Counts[i] += o.Counts[i]
	}
}

// Total is the number of pairwise kernel invocations counted.
func (st *KernelStats) Total() int64 {
	var n int64
	for _, c := range st.Counts {
		n += c
	}
	return n
}

// WordParallel is the number of invocations that ran a word-parallel
// dense route (see Route.WordParallel).
func (st *KernelStats) WordParallel() int64 {
	var n int64
	for r, c := range st.Counts {
		if Route(r).WordParallel() {
			n += c
		}
	}
	return n
}

// IsZero reports whether no invocations were counted (lets encoders
// with the omitzero option drop empty stats).
func (st KernelStats) IsZero() bool {
	for _, c := range st.Counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// String renders the non-zero routes in dispatch-matrix order, e.g.
// "uint-gallop=12 bitset-bitset=3".
func (st *KernelStats) String() string {
	var sb bytes.Buffer
	for r, c := range st.Counts {
		if c == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", Route(r), c)
	}
	return sb.String()
}

// MarshalJSON encodes the stats as an object of non-zero route counts
// in dispatch-matrix order: {"uint-gallop":12,"bitset-bitset":3}.
func (st KernelStats) MarshalJSON() ([]byte, error) {
	var sb bytes.Buffer
	sb.WriteByte('{')
	first := true
	for r, c := range st.Counts {
		if c == 0 {
			continue
		}
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%q:%d", Route(r).String(), c)
	}
	sb.WriteByte('}')
	return sb.Bytes(), nil
}

// Kernel is the layout-polymorphic set-operation entry point: one object
// per intersection configuration, dispatching each call on the operand
// layouts. It is a concrete type, not an interface: the loop nest passes
// operands by pointer, and through an interface those pointers (and the
// scratch result they land in) would escape to the heap (docs/KERNELS.md,
// "Calling convention"). The execution engine holds one per worker
// (counting kernels are not safe for concurrent use — each worker counts
// into its own KernelStats).
type Kernel struct {
	cfg Config
	st  *KernelStats
}

// NewKernel returns the kernel for cfg. The zero Config is the fully
// optimized EmptyHeaded kernel set.
func NewKernel(cfg Config) *Kernel { return &Kernel{cfg: cfg} }

// NewCountingKernel returns a kernel that additionally tallies each
// dispatch into st. Not safe for concurrent use — give each worker its
// own stats block and merge with KernelStats.Add.
func NewCountingKernel(cfg Config, st *KernelStats) *Kernel {
	return &Kernel{cfg: cfg, st: st}
}

// DefaultKernel is the shared fully-optimized kernel (zero Config, no
// counting); Intersect and IntersectCount are shorthands over it.
var DefaultKernel = NewKernel(Config{})

// Intersect computes a ∩ b with the default configuration.
func Intersect(a, b Set) Set { return DefaultKernel.Intersect(a, b) }

// IntersectCount computes |a ∩ b| with the default configuration.
func IntersectCount(a, b Set) int { return DefaultKernel.Count(a, b) }

func (k *Kernel) note(r Route) {
	if k.st != nil {
		k.st.Counts[r]++
	}
}

// routeOfAlgo maps a resolved uint∩uint algorithm to its route.
func routeOfAlgo(a Algo) Route {
	switch a {
	case AlgoMerge:
		return RouteUintMerge
	case AlgoGalloping:
		return RouteUintGallop
	default:
		return RouteUintShuffle
	}
}

// Intersect computes a ∩ b, allocating the result. The result layout
// follows the paper: uint∩uint→uint, bitset∩bitset→bitset,
// uint∩bitset→uint (§4.2 fn. 6), composite∩composite→composite.
func (k *Kernel) Intersect(a, b Set) Set {
	var s Set
	k.IntersectInto(&s, &a, &b, nil, nil)
	if a.layout == Composite && b.layout == Composite {
		return NewComposite(s.data)
	}
	return s
}

// IntersectInto stores a ∩ b in *dst (which must not be a or b) using
// caller-provided scratch: uint-valued results land in buf, bitset
// results in wbuf (both grown as needed and returned for reuse). The
// result aliases the buffers, so the caller owns their lifetime. This is
// the allocation-free, copy-free fast path of the generated loop nests
// (§3.3); it covers every layout pair, with composite∩composite→uint.
func (k *Kernel) IntersectInto(dst, a, b *Set, buf []uint32, wbuf []uint64) ([]uint32, []uint64) {
	*dst = Set{} // filled in place below: no Set is built elsewhere and copied in
	if a.card == 0 || b.card == 0 {
		return buf, wbuf
	}
	switch {
	case a.layout == Uint && b.layout == Uint:
		algo := pickAlgo(a.data, b.data, k.cfg)
		k.note(routeOfAlgo(algo))
		buf = intersectUintUint(a.data, b.data, algo, buf[:0])
	case a.layout == Uint && b.layout == Bitset:
		k.note(RouteUintBitset)
		buf = intersectUintBitset(a.data, b, buf[:0])
	case a.layout == Bitset && b.layout == Uint:
		k.note(RouteUintBitset)
		buf = intersectUintBitset(b.data, a, buf[:0])
	case a.layout == Bitset && b.layout == Bitset:
		k.note(RouteBitsetWord)
		base, wa, wb, n := bitsetOverlap(a, b)
		if cap(wbuf) < n {
			wbuf = make([]uint64, n)
		}
		wbuf = wbuf[:n]
		if k.cfg.BitByBit {
			bitByBitAnd(wbuf, wa, wb, n)
		} else {
			for i := 0; i < n; i++ {
				wbuf[i] = wa[i] & wb[i]
			}
		}
		dst.setBitsetWords(base, wbuf)
		return buf, wbuf
	case a.layout == Composite && b.layout == Composite:
		k.note(RouteBlockBlock)
		buf = intersectCompositeComposite(a, b, buf[:0])
	default:
		k.note(RouteMixedProbe)
		buf = intersectMixedProbe(a, b, buf[:0])
	}
	if len(buf) > 0 {
		dst.card, dst.data = len(buf), buf
	}
	return buf, wbuf
}

// Count computes |a ∩ b| without materializing the result.
func (k *Kernel) Count(a, b Set) int { return k.CountOf(&a, &b) }

// CountOf is Count for operands held by pointer (the loop nest's tail).
func (k *Kernel) CountOf(a, b *Set) int {
	if a.card == 0 || b.card == 0 {
		return 0
	}
	switch {
	case a.layout == Uint && b.layout == Uint:
		algo := pickAlgo(a.data, b.data, k.cfg)
		k.note(routeOfAlgo(algo))
		return intersectCountUintUint(a.data, b.data, algo)
	case a.layout == Bitset && b.layout == Bitset:
		k.note(RouteBitsetWord)
		return intersectCountBitsetBitset(a, b, k.cfg.BitByBit)
	case a.layout == Uint && b.layout == Bitset:
		k.note(RouteUintBitset)
		return intersectCountUintBitset(a.data, b)
	case a.layout == Bitset && b.layout == Uint:
		k.note(RouteUintBitset)
		return intersectCountUintBitset(b.data, a)
	case a.layout == Composite && b.layout == Composite:
		k.note(RouteBlockBlock)
		return intersectCountCompositeComposite(a, b)
	default:
		k.note(RouteMixedProbe)
		if b.card < a.card {
			a, b = b, a
		}
		n := 0
		a.ForEach(func(_ int, v uint32) {
			if b.containsOnly(v) {
				n++
			}
		})
		return n
	}
}

// Merge3 computes (base \ del) ∪ ins as a sorted value slice — the
// per-level operation of the delta-trie overlay merge (see merge3).
func (k *Kernel) Merge3(base, ins, del Set) []uint32 { return merge3(base, ins, del) }

// intersectMixedProbe handles layout pairs without a specialized kernel
// (composite against uint or bitset): the smaller side streams in order
// and probes the larger, so the output stays sorted and the cost is
// bounded by the smaller cardinality times a membership probe.
func intersectMixedProbe(a, b *Set, out []uint32) []uint32 {
	if b.card < a.card {
		a, b = b, a
	}
	a.ForEach(func(_ int, v uint32) {
		if b.containsOnly(v) {
			out = append(out, v)
		}
	})
	return out
}
