package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchFiles are the committed artifacts the gate guards in CI.
var benchFiles = []string{"machine", "compile", "fleet", "adaptive", "harden"}

// readBench decodes a committed BENCH_<name>.json.
func readBench(t *testing.T, name string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// writeJSON writes v into a fresh file under t's temp dir.
func writeJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return writeRaw(t, data)
}

func writeRaw(t *testing.T, data []byte) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "bench-*.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// firstGrid returns the alphabetically first top-level object carrying
// a speedup, or "" when the file has none.
func firstGrid(m map[string]any) string {
	var names []string
	for name, v := range m {
		if obj, ok := v.(map[string]any); ok {
			if _, ok := obj["speedup"].(float64); ok {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

// gate runs benchguard on args and returns its exit code and stdout.
func gate(args ...string) (int, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String()
}

func TestSelfComparisonPasses(t *testing.T) {
	var all []string
	for _, name := range benchFiles {
		base := writeJSON(t, readBench(t, name))
		fresh := writeJSON(t, readBench(t, name))
		if code, out := gate(base, fresh); code != 0 {
			t.Errorf("%s against itself: exit %d, want 0\n%s", name, code, out)
		}
		all = append(all, base, fresh)
	}
	if code, out := gate(all...); code != 0 {
		t.Errorf("all five pairs at once: exit %d, want 0\n%s", code, out)
	}
}

func TestSpeedupDropFails(t *testing.T) {
	for _, name := range benchFiles {
		m := readBench(t, name)
		grid := firstGrid(m)
		if grid == "" {
			continue
		}
		base := writeJSON(t, m)
		obj := m[grid].(map[string]any)
		obj["speedup"] = obj["speedup"].(float64) * 0.70
		fresh := writeJSON(t, m)
		code, out := gate(base, fresh)
		if code != 1 || !strings.Contains(out, "FAIL "+grid) {
			t.Errorf("%s with %s speedup ×0.70: exit %d, want 1 and a FAIL line\n%s", name, grid, code, out)
		}
	}
}

func TestCompileRiseFails(t *testing.T) {
	m := readBench(t, "compile")
	base := writeJSON(t, m)
	m["ns_per_compile"] = m["ns_per_compile"].(float64) * 1.30
	fresh := writeJSON(t, m)
	code, out := gate(base, fresh)
	if code != 1 || !strings.Contains(out, "FAIL ns_per_compile") {
		t.Errorf("ns_per_compile ×1.30: exit %d, want 1 and a FAIL line\n%s", code, out)
	}
	// one regressed pair fails the whole run, whatever its position
	machine := writeJSON(t, readBench(t, "machine"))
	if code, out := gate(machine, machine, base, fresh); code != 1 {
		t.Errorf("passing pair then regressed pair: exit %d, want 1\n%s", code, out)
	}
}

func TestMissingGridFails(t *testing.T) {
	for _, name := range benchFiles {
		m := readBench(t, name)
		grid := firstGrid(m)
		if grid == "" {
			continue
		}
		base := writeJSON(t, m)
		delete(m, grid)
		fresh := writeJSON(t, m)
		code, out := gate(base, fresh)
		if code != 1 || !strings.Contains(out, "grid missing from fresh results") {
			t.Errorf("%s without %s: exit %d, want 1 and a missing-grid line\n%s", name, grid, code, out)
		}
	}
}

func TestUnusableInputExits2(t *testing.T) {
	good := writeJSON(t, readBench(t, "machine"))
	notJSON := writeRaw(t, []byte("not json\n"))
	noKey := writeJSON(t, map[string]any{"benchmark": "MachineSweep", "speedup": 3.9})
	missing := filepath.Join(t.TempDir(), "absent.json")
	cases := map[string][]string{
		"non-JSON baseline":    {notJSON, good},
		"non-JSON fresh":       {good, notJSON},
		"no guarded key":       {noKey, good},
		"fresh no guarded key": {good, noKey},
		"missing file":         {missing, good},
		"no arguments":         {},
		"odd number of files":  {good, good, good},
	}
	for name, args := range cases {
		if code, out := gate(args...); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", name, code, out)
		}
	}
}
