package prima_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"uicwelfare/internal/expr"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// goldenHashes pins FNV-64a digests of Members(), Offsets() and the
// selected seeds for fixed (graph, cascade, algorithm, workers, seed)
// builds. The values were recorded before the RR-set kernel was rewritten
// for speed (head-index queue, register-resident edge coins, CSR cover
// index); any drift means a build is no longer byte-identical to that
// reference.
var goldenHashes = map[string][3]uint64{
	"flixster/IC/prima/w1":      {0x6e0b500c6e9742a1, 0x608584e9c34db4c2, 0x5c9c0e5cfcf2e9bb},
	"flixster/IC/prima/w2":      {0xde8d2b001f828b89, 0x5bbd9779a7cfd145, 0x37032120203c55c7},
	"flixster/IC/prima/w3":      {0x4a3cabaadca25e24, 0x7cf656051f8bc70f, 0x533fa664a7493de3},
	"flixster/IC/imm/w1":        {0xdc89d2ff85a92847, 0xf45488a8372bd1d4, 0xdd851588a1ff1025},
	"flixster/IC/imm/w2":        {0xc039919bab31f25a, 0xe4dbc7e9e0d31df4, 0x37032120203c55c7},
	"flixster/IC/imm/w3":        {0xbd4cbaf78afdc66, 0x1df80740fe85276f, 0x811ad52079cbd6a3},
	"flixster/LT/prima/w1":      {0xe1f0e5c9f209b894, 0x897d2416f7e402bf, 0xc886f765293bbcd7},
	"flixster/LT/prima/w2":      {0xede67f42ebe0de, 0x90d8c84e271e280c, 0xb67ecf931f9db2ad},
	"flixster/LT/prima/w3":      {0xb295e30a16e2d28e, 0xde92723e13892e54, 0xab20518c8f3b1530},
	"flixster/LT/imm/w1":        {0x20c2d61d00261b81, 0x40d8c07fe6219df7, 0xa1b93f499e407cc5},
	"flixster/LT/imm/w2":        {0x269c2f1e2fb16ece, 0x3cb4a1dfc2a30009, 0x754e86c5e23cd3ed},
	"flixster/LT/imm/w3":        {0xd1e02fc41dc5221c, 0xcead14b8fdd28b6e, 0xab20518c8f3b1530},
	"douban-book/IC/prima/w1":   {0xd1576fc81221b51b, 0x66b35f33adb7a775, 0x4e99cc07f5ebc3a4},
	"douban-book/IC/prima/w2":   {0xbfff9e2dc0e245c4, 0xf4b7af20d8fcf4ff, 0xb9a2d06602f5e66},
	"douban-book/IC/prima/w3":   {0xac32e9a124e24e39, 0x65357c92243ce640, 0xd37d5e200e3ee347},
	"douban-book/IC/imm/w1":     {0x9fc5e7798c004690, 0x38b6970b6f3f2d34, 0x4a4954dcc63a73a4},
	"douban-book/IC/imm/w2":     {0x789e3972c954e5e9, 0x7a78d60bf29ef89d, 0xbfad850f3627de86},
	"douban-book/IC/imm/w3":     {0x3673ab88251f0d54, 0x4f7c92631d940cd1, 0x503bcba52457d154},
	"douban-book/LT/prima/w1":   {0x29d201881e851c6d, 0xb941d9ab19630a43, 0x1a9cb83b32abe0d1},
	"douban-book/LT/prima/w2":   {0xe4659a82edc44073, 0xee3981ed55d77d7f, 0xf171f798afb391ad},
	"douban-book/LT/prima/w3":   {0xc6e38bc6abfd2eb1, 0x50d55232cae514a9, 0x8c61ba98ce047b88},
	"douban-book/LT/imm/w1":     {0x5afc9554348356fa, 0xeb74c1112df77f26, 0x1a1cd90347b58e69},
	"douban-book/LT/imm/w2":     {0xc2a1c6c5cb540af6, 0x184af8e4da58eabb, 0xf171f798afb391ad},
	"douban-book/LT/imm/w3":     {0x9b5ac6aba9e4a225, 0x70d4b7952b483ad1, 0x8c0c7b1e31604498},
	"flixster/IC/prima/w2/coin": {0x13ae438a346690, 0x37c34e8ff5e34187, 0xe33f477f52b1ecaa},
}

// goldenCoin is a node coin that exercises every branch of a coin flip:
// certain failure, certain pass, and a fractional draw.
func goldenCoin(v graph.NodeID) float64 {
	switch v % 4 {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 0.6
	}
}

func hashSketch(col *rrset.Collection, seeds []graph.NodeID) [3]uint64 {
	var out [3]uint64
	var buf [8]byte
	h := fnv.New64a()
	for _, v := range col.Members() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	out[0] = h.Sum64()
	h = fnv.New64a()
	for _, o := range col.Offsets() {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		h.Write(buf[:])
	}
	out[1] = h.Sum64()
	h = fnv.New64a()
	for _, v := range seeds {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	out[2] = h.Sum64()
	return out
}

// TestGoldenBuildsByteIdentical rebuilds every pinned sketch and compares
// its digests with the recorded reference.
func TestGoldenBuildsByteIdentical(t *testing.T) {
	families := []struct {
		name  string
		scale float64
	}{{"flixster", 0.2}, {"douban-book", 0.05}}
	cascades := []struct {
		name string
		c    graph.Cascade
	}{{"IC", graph.CascadeIC}, {"LT", graph.CascadeLT}}
	ctx := context.Background()

	build := func(t *testing.T, g *graph.Graph, algo string, opts prima.Options) [3]uint64 {
		t.Helper()
		rng := stats.NewRNG(2024)
		if algo == "imm" {
			sk, err := imm.BuildSketchCtx(ctx, g, 12, imm.Options{Cascade: opts.Cascade, Workers: opts.Workers, NodeCoin: opts.NodeCoin}, rng)
			if err != nil {
				t.Fatal(err)
			}
			return hashSketch(sk.Col, sk.Select().Seeds)
		}
		sk, err := prima.BuildSketchCtx(ctx, g, []int{12, 7}, opts, rng)
		if err != nil {
			t.Fatal(err)
		}
		return hashSketch(sk.Col, sk.Select().Seeds)
	}
	check := func(t *testing.T, name string, got [3]uint64) {
		t.Helper()
		if want, ok := goldenHashes[name]; !ok || want != got {
			t.Errorf("%s: digests %s, want %#x", name,
				fmt.Sprintf("{%#x, %#x, %#x}", got[0], got[1], got[2]), want)
		}
	}

	for _, fam := range families {
		g, err := expr.GenerateByName(fam.name, fam.scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, cas := range cascades {
			for _, algo := range []string{"prima", "imm"} {
				for w := 1; w <= 3; w++ {
					name := fmt.Sprintf("%s/%s/%s/w%d", fam.name, cas.name, algo, w)
					check(t, name, build(t, g, algo, prima.Options{Cascade: cas.c, Workers: w}))
				}
			}
		}
	}
	g, err := expr.GenerateByName("flixster", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	check(t, "flixster/IC/prima/w2/coin", build(t, g, "prima", prima.Options{Workers: 2, NodeCoin: goldenCoin}))
}
