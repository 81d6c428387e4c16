package ilt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mosaic/internal/bench"
	"mosaic/internal/grid"
	"mosaic/internal/sim"
)

// goldenMasks pins the SHA-256 of the binarized B1-B10 masks at the
// benchmark resolution (128 px over the 1024 nm clip, paper parameters),
// one row per clip: MOSAIC_fast, MOSAIC_exact. The Table 2 score column is
// a function of these masks alone, so it cannot move unnoticed. A change
// that moves a hash on purpose must also bump cache.DigestVersion.
var goldenMasks = map[string][2]string{
	"B1":  {"4c6188384ce01b02342b2c18b4213ff1d47816116886de9babdcf7662f923ec4", "522c10edb0adb103842662fb3fe28def34eb9acd3a369771c6612682af5991fc"},
	"B2":  {"ab21193b046306bc905d02f38aa70aef87dd7668c31e79ac7c8502946c186574", "9edabc334cd594affbf000d513af1a915435603ec69aaaef57a437c16e211450"},
	"B3":  {"f10141925da03bcc927d86b4979f9f0f737790963f22d164977294b4a25970dc", "fe3153207e1989832dbdec2e0717414617f8e720f3751ffcc88668b85980863c"},
	"B4":  {"63f8734133e7711d65c0e0db9264f389bd5de83817c4aa9a9edbfa899e8656a4", "53b52e963025feff7529ffc60a33802c29a265d68c1eda1b2c0cce59525b6578"},
	"B5":  {"0599abe341a1761b3488345e12a1124b6046fad95bf8003ca8404102bfe6d4b9", "9c28833a83e23efa8d8e4e899a3f0b2c8c58b3b9cc2cbd322a22ea06dc7417a2"},
	"B6":  {"9d96d0e5d19f3dbec576964532192d8eabffb89a2d3c39ec2612cef80620229b", "f8fb97ba8552a094a0b1a950b053edfea3224042715e4d40e52a183982fb67e4"},
	"B7":  {"91f4107b4546af835d9f417ad873b854069e2f99350c1885fb688df2249ed97e", "28af812c62df4ef3b14b7815f81b253fa86cef77032f7c7371df4dd66759853a"},
	"B8":  {"9d923609d9fc78bd258cbce4586851af40018aa0652c422108a8b5e999001294", "7a93105a410c24a5597730c47a9a7c87d6267ae6fe555ffdcbd1bda43ff9ac19"},
	"B9":  {"4f8aad30d9c8901e882c7bcb74062d8adc0da7f7b3bb4584af343c5ed792319a", "acb322b6eb9a57a7b89026bf68781242240b1030390d60f35757847bbc92ac7d"},
	"B10": {"24899a9b84c83fc28ab6b36df2fb5334344efbf86e90dab181d6362f943ced14", "d470c9713beb95c0791b93b8af594bfd93163ddd1b88f9871225a6778be0df5d"},
}

// goldenMasksPaperGrid pins one clip per mode on the grid of the archived
// tables, 512 px at 2 nm, where the imaging grid is an eighth of the mask
// grid and a pixel is a seventh of th_epe rather than half of it.
var goldenMasksPaperGrid = map[string][2]string{
	"B4": {"2656043079319ee4d7b881e42c3a57add42351256e96f9895d4feb6b294ecad3", "97a4e3ec8a4064110cc0aa91fbadfb9da5fdab9227802a3db287bd54bba824b2"},
}

// maskSHA hashes a binary mask as its dimensions plus one byte per pixel.
func maskSHA(m *grid.Field) string {
	buf := make([]byte, 0, 2+len(m.Data))
	buf = append(buf, byte(m.W), byte(m.H))
	for _, v := range m.Data {
		b := byte(0)
		if v > 0 {
			b = 1
		}
		buf = append(buf, b)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func TestGoldenBenchmarkMasks(t *testing.T) {
	if testing.Short() {
		t.Skip("22 full optimizations")
	}
	check := func(s *sim.Simulator, golden map[string][2]string) {
		for _, name := range bench.Names() {
			want, ok := golden[name]
			if !ok {
				continue
			}
			layout, err := bench.Layout(name)
			if err != nil {
				t.Fatal(err)
			}
			for mi, mode := range []Mode{ModeFast, ModeExact} {
				o, err := New(s, DefaultConfig(mode))
				if err != nil {
					t.Fatal(err)
				}
				res, err := run(o, layout)
				if err != nil {
					t.Fatal(err)
				}
				if got := maskSHA(res.Mask); got != want[mi] {
					t.Errorf("%s %v at %d px: mask sha256 %s, want %s", name, mode, s.Cfg.GridSize, got, want[mi])
				}
			}
		}
	}
	check(benchSim(t), goldenMasks)
	check(benchSimAt(t, 512), goldenMasksPaperGrid)
}
