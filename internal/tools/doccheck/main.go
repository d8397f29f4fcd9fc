// Command doccheck is the CI documentation and dead-code gate. It
// enforces five rules with go/ast and go/types, failing (exit 1) with a
// file:line listing when any is violated:
//
//  1. Every package under internal/ and cmd/ (and the root orojenesis
//     facade) has a package doc comment, so each package states which
//     paper section or figure it reproduces.
//  2. Every exported top-level identifier in the core packages — pareto,
//     traverse, bound, shard, serve, workload, fleet, store — has a
//     doc comment. A group comment on a const/var block covers the whole
//     block.
//  3. Every "docs/<name>.md" reference in a comment points at a file
//     that exists, so doc comments cannot drift away from the documents
//     they cite (e.g. docs/fleet-protocol.md, docs/shard-format.md).
//  4. Every func and method declared in a non-test file under internal/
//     (internal/tools excluded) has a production caller: a use, resolved
//     by go/types down to the receiver, from a non-test file of the
//     module or of bench/ (see checkCallers). Exceptions live in
//     zeroCallerAllow, one reason per entry, and a stale entry is itself
//     a failure.
//  5. Every exported field of an exported *Options or *Config struct
//     under internal/ (internal/tools excluded) has a production setter:
//     a composite-literal key, an assignment or an address taken (as
//     flag.IntVar(&o.F, ...) does) in a non-test file outside its own
//     package, bench/ included (see checkSetters). Fields with a json
//     tag are decoded from outside the program and exempt. Exceptions
//     live in noSetterAllow, one reason per entry, and a stale entry is
//     itself a failure.
//
// Usage (from the module root, as `make docs` does):
//
//	go run ./internal/tools/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// strictDirs are the packages whose exported identifiers must all carry
// doc comments, not just the package clause.
var strictDirs = map[string]bool{
	"internal/pareto":   true,
	"internal/traverse": true,
	"internal/bound":    true,
	"internal/shard":    true,
	"internal/serve":    true,
	"internal/workload": true,
	"internal/fleet":    true,
	"internal/store":    true,
}

// docRefPattern matches module-relative documentation references in
// comments, e.g. "docs/fleet-protocol.md".
var docRefPattern = regexp.MustCompile(`\bdocs/[A-Za-z0-9._-]+\.md\b`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}

	var problems []string
	for _, dir := range dirs {
		ps, err := checkDir(root, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	l, err := loadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, checkCallers(l, zeroCallerAllow)...)
	problems = append(problems, checkSetters(l, noSetterAllow)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d packages documented (%d with full exported-identifier coverage)\n",
		len(dirs), countStrict(dirs))
}

// packageDirs returns the module-relative directories doccheck audits:
// the root package plus every directory under internal/ and cmd/ that
// contains Go files, testdata and vendored trees excluded.
func packageDirs(root string) ([]string, error) {
	dirs := []string{"."}
	for _, top := range []string{"internal", "cmd"} {
		sub, err := goDirs(root, top)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, sub...)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func countStrict(dirs []string) int {
	n := 0
	for _, d := range dirs {
		if strictDirs[d] {
			n++
		}
	}
	return n
}

// checkDir parses one package directory (test files excluded) and
// returns its documentation problems.
func checkDir(root, dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}

	var problems []string
	for name, pkg := range pkgs {
		if !hasPackageDoc(pkg) {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
		for _, file := range pkg.Files {
			problems = append(problems, checkDocRefs(root, fset, file)...)
			if strictDirs[dir] {
				problems = append(problems, checkExported(fset, file)...)
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

func hasPackageDoc(pkg *ast.Package) bool {
	for _, file := range pkg.Files {
		if file.Doc != nil && strings.TrimSpace(file.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// checkDocRefs reports every "docs/<name>.md" reference in file's
// comments that does not resolve to a file under the module root — the
// cross-check keeping doc comments and the docs/ tree in sync.
func checkDocRefs(root string, fset *token.FileSet, file *ast.File) []string {
	var problems []string
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			for _, ref := range docRefPattern.FindAllString(c.Text, -1) {
				if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(ref))); err != nil {
					p := fset.Position(c.Pos())
					problems = append(problems, fmt.Sprintf("%s:%d: comment references %s, which does not exist",
						filepath.ToSlash(p.Filename), p.Line, ref))
				}
			}
		}
	}
	return problems
}

// checkExported reports every exported top-level declaration in file
// that lacks a doc comment: funcs and methods (when the receiver type is
// exported), and specs inside type/const/var blocks. A doc comment on
// the enclosing GenDecl covers all of its specs, matching godoc's
// rendering of grouped constants.
func checkExported(fset *token.FileSet, file *ast.File) []string {
	var problems []string
	undocumented := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}

	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				what := "function"
				if d.Recv != nil {
					what = "method"
				}
				undocumented(d.Pos(), what, d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						undocumented(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if groupDoc || s.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							undocumented(s.Pos(), d.Tok.String(), n.Name)
							break
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedReceiver reports whether d is a plain function or a method on
// an exported type; methods on unexported types are godoc-invisible and
// exempt.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}
