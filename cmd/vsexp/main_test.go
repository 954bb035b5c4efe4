package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExperimentsSmoke runs every experiment at a small rank count and
// checks that each writes some Markdown without panicking; at 8 ranks
// (one node) fig18 takes its too-small-cluster path. overhead is skipped:
// it sweeps fixed rank counts and takes seconds even here.
func TestExperimentsSmoke(t *testing.T) {
	for _, e := range experiments {
		if e.name == "overhead" {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			var buf bytes.Buffer
			e.run(&buf, suiteConfig{ranks: 8})
			if strings.TrimSpace(buf.String()) == "" {
				t.Fatalf("%s wrote no output", e.name)
			}
		})
	}
}

func TestNoiseBlocks(t *testing.T) {
	for _, tc := range []struct{ nodes, first, second, width int }{
		{16, 3, 9, 3}, // the paper's 128-rank layout: ranks 24-47 and 72-95
		{6, 1, 3, 1},  // smallest machine that fits both blocks
		{5, 0, 2, 0},  // too small: width 0
		{64, 12, 36, 12},
	} {
		first, second, width := noiseBlocks(tc.nodes)
		if first != tc.first || second != tc.second || width != tc.width {
			t.Errorf("noiseBlocks(%d) = %d, %d, %d; want %d, %d, %d",
				tc.nodes, first, second, width, tc.first, tc.second, tc.width)
		}
		if width > 0 && first+width > second {
			t.Errorf("noiseBlocks(%d): blocks overlap", tc.nodes)
		}
	}
}
