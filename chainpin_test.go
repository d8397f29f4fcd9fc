package orojenesis

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// curveDigest is the SHA-256 of a curve's JSON encoding, the byte form
// the store, the server and the shard files carry.
func curveDigest(t *testing.T, c *Curve) string {
	t.Helper()
	b, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checkDigests compares every named curve's digest with its frozen value.
func checkDigests(t *testing.T, got map[string]*Curve, want map[string]string) {
	t.Helper()
	for name, c := range got {
		if d := curveDigest(t, c); d != want[name] {
			t.Errorf("%s: curve digest %s, want %s", name, d, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("checked %d curves, want %d", len(got), len(want))
	}
}

// TestAnalyzeChainBytesPinned freezes the curve bytes and evaluation
// counts of the multi-Einsum flow on a small three-op chain; the digests
// were recorded before the flow was rewritten as fusion.Analyze.
func TestAnalyzeChainBytesPinned(t *testing.T) {
	c := MustChain("pin", 64,
		GEMMOp("a", 64, 32, 48),
		GEMMOp("b", 64, 48, 16),
		GEMMOp("c", 64, 16, 32))
	for _, workers := range []int{1, 2} {
		a, err := AnalyzeChain(c, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkDigests(t, map[string]*Curve{
			"per-op a": a.PerOp[0], "per-op b": a.PerOp[1], "per-op c": a.PerOp[2],
			"unfused": a.Unfused, "tiled": a.Tiled, "untiled": a.Untiled, "best": a.Best,
		}, map[string]string{
			"per-op a": "dcf65dd200c58a92", "per-op b": "8f541e5e54d3abb6", "per-op c": "44e14a7cb3ad36b1",
			"unfused": "face6b8a184957a9", "tiled": "6b0a227f3d0a643f",
			"untiled": "d8bc04b937d47b98", "best": "70503d19ab681277",
		})
		want := []int64{4327, 3360, 1, 4} // per-op, tiled, untiled, segmentation
		if len(a.Stats.Phases) != len(want) {
			t.Fatalf("%d phases, want %d", len(a.Stats.Phases), len(want))
		}
		for i, p := range a.Stats.Phases {
			if p.Evaluated != want[i] {
				t.Errorf("phase %q evaluated %d, want %d", p.Name, p.Evaluated, want[i])
			}
		}
		if a.AlgoMin != 13824 || a.UnfusedAlgoMin != 30208 {
			t.Errorf("algorithmic minima %d/%d, want 13824/30208", a.AlgoMin, a.UnfusedAlgoMin)
		}
	}
}

// TestNewBlockStudyBytesPinned freezes every curve and annotation of the
// LLM building-block study at 1/16 scale.
func TestNewBlockStudyBytesPinned(t *testing.T) {
	s, err := NewBlockStudy(GPT3_6_7B().Scaled(16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, map[string]*Curve{
		"chain unfused": s.ChainUnfused, "chain fused": s.ChainFused, "chain segmented": s.ChainSegmented,
		"block unfused": s.BlockUnfused, "block fused": s.BlockFused, "block segmented": s.BlockSegmented,
	}, map[string]string{
		"chain unfused": "4cb97b8d014939e5", "chain fused": "2172140c89e99ec6",
		"chain segmented": "2bf30c16db39cb6d", "block unfused": "96976be744f507ab",
		"block fused": "687f1a17b4f6efaa", "block segmented": "735feddb2bafb13a",
	})
	if s.AlgoMinUnfusedBytes != 58195968 || s.AlgoMinFusedBytes != 9961472 || s.BlockMACs != 1744830464 {
		t.Errorf("annotations %d/%d/%d, want 58195968/9961472/1744830464",
			s.AlgoMinUnfusedBytes, s.AlgoMinFusedBytes, s.BlockMACs)
	}
}
