package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// RepoConfig is the configuration the repo holds itself to; the CI job
// runs this test, so a convention break fails the build.
var repoConfig = Config{
	NoContextBackground: []string{"internal/server"},
	EntryPointCtx:       []string{".", "internal/experiments"},
}

// TestRepoIsClean lints the repository's own source. Zero findings is
// the contract: every Run*/Compile*/Evaluate* entry point takes a
// context and the server never detaches from the request context.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root, repoConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// writeFixture materializes a tiny package in a temp dir.
func writeFixture(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRulesFire proves both rules actually detect their targets (a
// linter that can't fail is worse than none) and that the documented
// escapes — a direct ctx param, unexported or uncovered names, test
// files — suppress them. A Ctx sibling no longer excuses an entry point
// that takes no context.
func TestRulesFire(t *testing.T) {
	root := t.TempDir()
	writeFixture(t, filepath.Join(root, "srv"), "srv.go", `package srv

import "context"

func handle() {
	ctx := context.Background() // violation: no-context-background
	_ = ctx
}
`)
	writeFixture(t, filepath.Join(root, "srv"), "srv_test.go", `package srv

import "context"

func helper() { _ = context.Background() } // test file: exempt
`)
	writeFixture(t, filepath.Join(root, "api"), "api.go", `package api

import "context"

type T struct{}

func RunBad() {}                                  // violation: no ctx
func (t *T) CompileBad() {}                       // violation: method, no ctx
func RunGood() {}                                 // violation: a Ctx sibling is no excuse
func RunGoodCtx(ctx context.Context) {}           // ok: takes ctx
func RunPoolWorkers() {}                          // violation: no Workers stripping
func RunPoolCtx(ctx context.Context) {}           // ok: takes ctx
func EvaluateDirect(ctx context.Context) {}       // ok: takes ctx itself
func runLower() {}                                // ok: unexported
func Render() {}                                  // ok: prefix not covered
`)

	findings, err := Run(root, Config{
		NoContextBackground: []string{"srv"},
		EntryPointCtx:       []string{"api"},
	})
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"no-context-background": filepath.Join("srv", "srv.go"),
		"entry-point-takes-ctx": filepath.Join("api", "api.go"),
	}
	got := map[string]int{}
	for _, f := range findings {
		got[f.Rule]++
		if wantFile, ok := want[f.Rule]; !ok || f.File != wantFile {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if got["no-context-background"] != 1 {
		t.Errorf("no-context-background: got %d findings, want 1", got["no-context-background"])
	}
	if got["entry-point-takes-ctx"] != 4 {
		t.Errorf("entry-point-takes-ctx: got %d findings, want 4", got["entry-point-takes-ctx"])
	}
}

// TestMissingDir ensures a misconfigured directory is an error, not a
// silent pass.
func TestMissingDir(t *testing.T) {
	if _, err := Run(t.TempDir(), Config{EntryPointCtx: []string{"nope"}}); err == nil {
		t.Fatal("want error for missing directory")
	}
}
