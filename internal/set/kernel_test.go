package set

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// oracleIntersect is the untouched scalar two-pointer merge — the "-RA"
// baseline — used as the differential oracle for every kernel route.
func oracleIntersect(a, b []uint32) []uint32 {
	return intersectMerge(a, b, nil)
}

// clusteredSet emits the skewed shape the composite layout targets: a few
// dense runs plus uniform background noise, spread over a wide range.
func clusteredSet(rng *rand.Rand, runs, runLen, noise, span int) []uint32 {
	var vals []uint32
	for r := 0; r < runs; r++ {
		start := uint32(rng.Intn(span))
		for k := 0; k < runLen; k++ {
			vals = append(vals, start+uint32(k))
		}
	}
	for k := 0; k < noise; k++ {
		vals = append(vals, uint32(rng.Intn(span)))
	}
	return sortedUnique(vals)
}

// TestKernelDifferential drives every kernel entry point (Intersect,
// IntersectInto, Count) across the full layout matrix × every algorithm
// × the bit-by-bit ablation, against the scalar merge oracle.
func TestKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfgs := []Config{
		{},
		{Algo: AlgoMerge},
		{Algo: AlgoShuffle},
		{Algo: AlgoGalloping},
		{BitByBit: true},
	}
	for trial := 0; trial < 40; trial++ {
		var av, bv []uint32
		switch trial % 3 {
		case 0: // uniform
			av = randomSet(rng, 1+rng.Intn(400), 1+rng.Intn(6000))
			bv = randomSet(rng, 1+rng.Intn(400), 1+rng.Intn(6000))
		case 1: // clustered (composite-shaped)
			av = clusteredSet(rng, 3, 40, 20, 1<<16)
			bv = clusteredSet(rng, 3, 40, 20, 1<<16)
		default: // heavy skew (galloping-shaped)
			av = randomSet(rng, 1+rng.Intn(10), 1<<16)
			bv = clusteredSet(rng, 4, 60, 100, 1<<16)
		}
		want := oracleIntersect(av, bv)
		for _, cfg := range cfgs {
			k := NewKernel(cfg)
			for _, sa := range allLayouts(av) {
				for _, sb := range allLayouts(bv) {
					got := k.Intersect(sa, sb)
					if !sliceEq(got.Slice(), want) {
						t.Fatalf("trial %d cfg %+v %s∩%s:\n got %v\nwant %v",
							trial, cfg, sa.Layout(), sb.Layout(), got.Slice(), want)
					}
					if n := k.Count(sa, sb); n != len(want) {
						t.Fatalf("trial %d cfg %+v %s∩%s: count %d want %d",
							trial, cfg, sa.Layout(), sb.Layout(), n, len(want))
					}
					var bufGot Set
					k.IntersectInto(&bufGot, &sa, &sb, nil, nil)
					if !sliceEq(bufGot.Slice(), want) {
						t.Fatalf("trial %d cfg %+v %s∩%s buffered:\n got %v\nwant %v",
							trial, cfg, sa.Layout(), sb.Layout(), bufGot.Slice(), want)
					}
				}
			}
		}
	}
}

// TestIntersectIntoReusesBuffers checks the buffered path is allocation
// free once warm: results alias the returned scratch slices for every
// layout pair, including composite∩composite and the mixed probe.
func TestIntersectIntoReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	av := clusteredSet(rng, 4, 50, 50, 1<<15)
	bv := clusteredSet(rng, 4, 50, 50, 1<<15)
	k := NewKernel(Config{})
	for _, sa := range allLayouts(av) {
		for _, sb := range allLayouts(bv) {
			// Warm the buffers, then re-run and require zero growth.
			var dst Set
			buf, wbuf := k.IntersectInto(&dst, &sa, &sb, nil, nil)
			allocs := testing.AllocsPerRun(10, func() {
				buf, wbuf = k.IntersectInto(&dst, &sa, &sb, buf, wbuf)
			})
			if allocs != 0 {
				t.Errorf("%s∩%s buffered: %.1f allocs/op, want 0",
					sa.Layout(), sb.Layout(), allocs)
			}
		}
	}
}

// TestKernelStatsRoutes checks a counting kernel books each layout pair
// to the expected dispatch route.
func TestKernelStatsRoutes(t *testing.T) {
	dense := make([]uint32, 600)
	for i := range dense {
		dense[i] = uint32(i)
	}
	sparse := []uint32{1, 70, 300, 599, 1<<20 + 5}
	u := FromSorted(dense)
	b := NewBitset(dense)
	c := NewComposite(dense)
	su := FromSorted(sparse)

	cases := []struct {
		name  string
		a, b  Set
		route Route
	}{
		{"uint∩uint merge-band", u, u, RouteUintShuffle},
		{"uint∩bitset", u, b, RouteUintBitset},
		{"bitset∩uint", b, u, RouteUintBitset},
		{"bitset∩bitset", b, b, RouteBitsetWord},
		{"composite∩composite", c, c, RouteBlockBlock},
		{"composite∩uint", c, u, RouteMixedProbe},
		{"bitset∩composite", b, c, RouteMixedProbe},
		{"skewed gallop", su, u, RouteUintGallop},
	}
	for _, tc := range cases {
		var st KernelStats
		k := NewCountingKernel(Config{}, &st)
		k.Intersect(tc.a, tc.b)
		if st.Counts[tc.route] != 1 || st.Total() != 1 {
			t.Errorf("%s: stats %v, want exactly one %s", tc.name, st.String(), tc.route)
		}
		st = KernelStats{}
		k.Count(tc.a, tc.b)
		if st.Counts[tc.route] != 1 {
			t.Errorf("%s Count: stats %v, want one %s", tc.name, st.String(), tc.route)
		}
		st = KernelStats{}
		var dst Set
		k.IntersectInto(&dst, &tc.a, &tc.b, nil, nil)
		if st.Counts[tc.route] != 1 {
			t.Errorf("%s IntersectInto: stats %v, want one %s", tc.name, st.String(), tc.route)
		}
	}

	// Algo pinning overrides the skew rule's route.
	var st KernelStats
	NewCountingKernel(Config{Algo: AlgoMerge}, &st).Intersect(u, u)
	if st.Counts[RouteUintMerge] != 1 {
		t.Errorf("pinned merge: stats %v", st.String())
	}

	// WordParallel covers exactly the dense word routes.
	st = KernelStats{}
	k := NewCountingKernel(Config{}, &st)
	k.Intersect(b, b)
	k.Intersect(c, c)
	k.Intersect(u, u)
	if got := st.WordParallel(); got != 2 {
		t.Errorf("WordParallel = %d, want 2 (stats %v)", got, st.String())
	}
	if st.Total() != 3 {
		t.Errorf("Total = %d, want 3", st.Total())
	}
}

func TestKernelStatsJSON(t *testing.T) {
	var st KernelStats
	st.Counts[RouteUintGallop] = 12
	st.Counts[RouteBitsetWord] = 3
	enc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != `{"uint-gallop":12,"bitset-bitset":3}` {
		t.Fatalf("marshal = %s", enc)
	}
	if !(KernelStats{}).IsZero() || st.IsZero() {
		t.Fatal("IsZero misreports")
	}
}

// TestMerge3MixedLayouts drives the delta-overlay merge across the full
// base × ins × del layout matrix — including the word-parallel bitset
// base path — against a map model. Trials rotate through the shapes the
// trie merge feeds it: a disjoint overlay (the reader's view), no
// inserts (a \ b), no tombstones (a ∪ b), and inserts that overlap
// tombstones aimed partly at absent values (insert wins).
func TestMerge3MixedLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 32; trial++ {
		base := clusteredSet(rng, 3, 50, 60, 1<<14)
		del := randomSubset(rng, base, len(base)/3)
		ins := randomSet(rng, 1+rng.Intn(100), 1<<14)
		switch trial % 4 {
		case 0:
			// Keep the overlay invariant: ins ∩ del = ∅.
			delSet := map[uint32]bool{}
			for _, v := range del {
				delSet[v] = true
			}
			ins2 := ins[:0]
			for _, v := range ins {
				if !delSet[v] {
					ins2 = append(ins2, v)
				}
			}
			ins = ins2
		case 1:
			ins, del = nil, randomSet(rng, 1+rng.Intn(200), 1<<14)
		case 2:
			del = nil
		case 3:
			del = sortedUnique(append(append([]uint32{}, ins[:len(ins)/2]...), del...))
		}

		model := map[uint32]bool{}
		for _, v := range base {
			model[v] = true
		}
		for _, v := range del {
			delete(model, v)
		}
		for _, v := range ins {
			model[v] = true
		}
		var want []uint32
		for v := range model {
			want = append(want, v)
		}
		want = sortedUnique(want)

		for _, sb := range allLayouts(base) {
			for _, si := range allLayouts(ins) {
				for _, sd := range allLayouts(del) {
					got := DefaultKernel.Merge3(sb, si, sd)
					if !sliceEq(got, want) {
						t.Fatalf("trial %d merge3(%s,%s,%s):\n got %v\nwant %v",
							trial, sb.Layout(), si.Layout(), sd.Layout(), got, want)
					}
				}
			}
		}
	}
}

// TestMerge3BitsetHighRange guards the word-span arithmetic near 2^32:
// a bitset base whose last word touches the top of the value space must
// not wrap the union span.
func TestMerge3BitsetHighRange(t *testing.T) {
	const top = 1<<32 - 1
	base := NewBitset([]uint32{top - 200, top - 100, top - 1, top})
	ins := FromSorted([]uint32{top - 150, top - 2})
	del := FromSorted([]uint32{top - 100})
	got := DefaultKernel.Merge3(base, ins, del)
	want := []uint32{top - 200, top - 150, top - 2, top - 1, top}
	if !sliceEq(got, want) {
		t.Fatalf("merge3 near 2^32: got %v want %v", got, want)
	}
}

// randomSubset picks n distinct members of vals.
func randomSubset(rng *rand.Rand, vals []uint32, n int) []uint32 {
	if n > len(vals) {
		n = len(vals)
	}
	idx := rng.Perm(len(vals))[:n]
	out := make([]uint32, 0, n)
	for _, i := range idx {
		out = append(out, vals[i])
	}
	return sortedUnique(out)
}

// TestChooseLayoutComposite checks that the optimizer never picks the
// block layout: a globally sparse set of locally dense 256-blocks — what
// the removed composite band chose — is uint, like the same cardinality
// spread uniformly. Only a pinned policy builds a composite set.
func TestChooseLayoutComposite(t *testing.T) {
	// Two fully dense 256-blocks far apart: globally sparse (range is
	// 1<<20 ≈ 2048·card), locally dense.
	var clustered []uint32
	for i := uint32(0); i < BlockBits; i++ {
		clustered = append(clustered, i, 1<<20+i)
	}
	clustered = sortedUnique(clustered)
	if got := ChooseLayout(clustered); got != Uint {
		t.Fatalf("clustered → %s, want uint", got)
	}
	if got := BuildAuto(clustered); got.Layout() != Uint {
		t.Fatalf("BuildAuto(clustered) layout = %s", got.Layout())
	}
	// The same cardinality spread uniformly: uint.
	var uniform []uint32
	for i := uint32(0); i < 512; i++ {
		uniform = append(uniform, i*3000)
	}
	if got := ChooseLayout(uniform); got != Uint {
		t.Fatalf("uniform sparse → %s, want uint", got)
	}
}

// FuzzIntersectKernels cross-checks every layout pair and algorithm
// against the scalar merge oracle on fuzzer-chosen inputs.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200}, []byte{2, 3, 5, 250}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 1}, []byte{255, 254, 253}, uint8(1))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, mode uint8) {
		decode := func(raw []byte) []uint32 {
			var vals []uint32
			var v uint32
			for i, x := range raw {
				// Variable stride keeps runs and gaps both reachable.
				v += uint32(x)%97 + 1
				if i%7 == 0 {
					v += uint32(x) << 6
				}
				vals = append(vals, v)
			}
			return sortedUnique(vals)
		}
		av, bv := decode(rawA), decode(rawB)
		want := oracleIntersect(av, bv)
		cfg := Config{Algo: Algo(mode % 4), BitByBit: mode%2 == 1}
		k := NewKernel(cfg)
		for _, sa := range allLayouts(av) {
			for _, sb := range allLayouts(bv) {
				if got := k.Intersect(sa, sb); !sliceEq(got.Slice(), want) {
					t.Fatalf("%s∩%s cfg %+v: got %v want %v",
						sa.Layout(), sb.Layout(), cfg, got.Slice(), want)
				}
				if n := k.Count(sa, sb); n != len(want) {
					t.Fatalf("%s∩%s cfg %+v: count %d want %d",
						sa.Layout(), sb.Layout(), cfg, n, len(want))
				}
			}
		}
	})
}
