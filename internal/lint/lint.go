// Package lint enforces the repo's own API conventions with a
// stdlib-only static analysis (go/parser + go/ast — no analysis
// framework dependency, so it runs in a hermetic build):
//
//   - no-context-background: request-path packages (internal/server)
//     must not call context.Background() outside tests; every operation
//     there runs under a request context with a deadline, and a
//     background context silently opts out of cancellation;
//   - entry-point-takes-ctx: every exported Run*/Compile*/Evaluate*
//     function or method must itself take a context.Context, keeping
//     every long-running API cancellable with one callable per
//     operation (no Background-supplying wrapper beside a Ctx form).
//
// The companion test runs both rules over the repository source, making
// the conventions regressions instead of review comments.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one convention violation.
type Finding struct {
	File string
	Line int
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Config selects which directories each rule applies to. Paths are
// relative to the root passed to Run.
type Config struct {
	// NoContextBackground: non-test files in these package directories
	// must not call context.Background().
	NoContextBackground []string
	// EntryPointCtx: exported Run*/Compile*/Evaluate* functions and
	// methods in these package directories must take a context.Context.
	EntryPointCtx []string
}

// entryPrefixes are the API families the entry-point rule covers.
var entryPrefixes = []string{"Run", "Compile", "Evaluate"}

// Run lints the configured directories under root and returns the
// findings sorted by file and line.
func Run(root string, cfg Config) ([]Finding, error) {
	var findings []Finding
	for _, dir := range cfg.NoContextBackground {
		fs, err := lintDir(root, dir, checkNoBackground)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	for _, dir := range cfg.EntryPointCtx {
		fs, err := lintDir(root, dir, checkEntryPointCtx)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		return findings[i].Line < findings[j].Line
	})
	return findings, nil
}

// lintDir parses every non-test .go file of one directory (no recursion
// — one directory is one package) and applies check to the file set.
func lintDir(root, dir string, check func(fset *token.FileSet, files map[string]*ast.File) []Finding) ([]Finding, error) {
	abs := filepath.Join(root, dir)
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(abs, name)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[filepath.Join(dir, name)] = f
	}
	return check(fset, files), nil
}

// checkNoBackground flags every context.Background() call.
func checkNoBackground(fset *token.FileSet, files map[string]*ast.File) []Finding {
	var out []Finding
	for rel, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Background" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "context" {
				out = append(out, Finding{
					File: rel, Line: fset.Position(call.Pos()).Line,
					Rule: "no-context-background",
					Msg:  "context.Background() in a request-path package: thread the request context instead",
				})
			}
			return true
		})
	}
	return out
}

// takesContext reports whether any parameter's type is context.Context.
func takesContext(fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, p := range fd.Type.Params.List {
		sel, ok := p.Type.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "context" && sel.Sel.Name == "Context" {
			return true
		}
	}
	return false
}

// checkEntryPointCtx flags exported Run*/Compile*/Evaluate* functions
// and methods that take no context.Context.
func checkEntryPointCtx(fset *token.FileSet, files map[string]*ast.File) []Finding {
	var out []Finding
	for rel, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || takesContext(fd) {
				continue
			}
			for _, prefix := range entryPrefixes {
				if strings.HasPrefix(fd.Name.Name, prefix) {
					out = append(out, Finding{
						File: rel, Line: fset.Position(fd.Pos()).Line,
						Rule: "entry-point-takes-ctx",
						Msg:  fmt.Sprintf("exported entry point %s takes no context.Context: long-running APIs must be cancellable", fd.Name.Name),
					})
					break
				}
			}
		}
	}
	return out
}
