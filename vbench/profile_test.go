package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestParseProfileReadsStacks decodes a goroutine profile of this process
// and finds the test's own frame on some stack.
func TestParseProfileReadsStacks(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIndex("goroutine") < 0 {
		t.Fatalf("sample types %v, want goroutine", p.types)
	}
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".TestParseProfileReadsStacks") {
				return
			}
		}
	}
	t.Fatalf("no stack holds the test function among %d samples", len(p.samples))
}

func TestModuleAndOwner(t *testing.T) {
	for fn, want := range map[string]string{
		"vsensor/internal/vm.(*interp).eval":      "vm",
		"vsensor/internal/server.appendRecords":   "server",
		"vsensor.RunProgram":                      "vsensor",
		"runtime.memmove":                         "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"sync.(*Map).Load":                        "stdlib",
		"net/http.(*conn).serve":                  "stdlib",
		"main.realMain":                           "other",
	} {
		if got := module(fn); got != want {
			t.Errorf("module(%q) = %q, want %q", fn, got, want)
		}
	}
	stack := []string{"runtime.memmove", "sync.(*Map).Load", "vsensor/internal/mpisim.(*World).Allreduce", "vsensor/internal/vm.(*interp).call"}
	if got := ownerModule(stack); got != "mpisim" {
		t.Errorf("ownerModule = %q, want mpisim", got)
	}
	if got := ownerModule([]string{"runtime.futex", "runtime.mcall"}); got != "runtime" {
		t.Errorf("ownerModule of a runtime-only stack = %q, want runtime", got)
	}
}
