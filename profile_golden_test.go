package repro_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/workloads"
)

const profileGoldenPath = "testdata/golden/profile_digests.txt"

// profileDigestLines renders one line per bundled kernel and input: the
// sha256 and length of the profile CollectProfileCtx serializes from a
// training run on that input.
func profileDigestLines(t *testing.T) []string {
	var lines []string
	for _, w := range workloads.All() {
		for _, in := range []struct {
			name string
			args []int64
		}{{"ProfileArgs", w.ProfileArgs}, {"RefArgs", w.RefArgs}} {
			data, err := repro.CollectProfileCtx(context.Background(), w.Src, in.args)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, in.name, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %x %d", w.Name, in.name, sha256.Sum256(data), len(data)))
		}
	}
	return lines
}

// TestGoldenProfileDigests pins the serialized profile of every bundled
// kernel at its training and reference inputs. Changes to how the
// interpreter collects a profile (its counters, the order it visits
// sites) must leave these bytes untouched; regenerate the file with
// -update only for a deliberate change of the profile format.
func TestGoldenProfileDigests(t *testing.T) {
	repro.ResetCaches()
	if *updateGolden {
		body := strings.Join(profileDigestLines(t), "\n") + "\n"
		if err := os.WriteFile(profileGoldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(profileGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := profileDigestLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d lines, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
}
