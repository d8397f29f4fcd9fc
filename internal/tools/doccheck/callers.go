package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// zeroCallerAllow lists the functions and test-support packages under
// internal/ that may stay without a production caller, each with the
// reason. Keys are "dir.Func", "dir.Type.Method" or a bare "dir" for a
// whole package. An entry that names nothing, or something that has
// gained a production caller, is itself reported, so the list cannot go
// stale.
var zeroCallerAllow = map[string]string{
	// Cross-package test references: oracles and enumerators that tests
	// of other packages compare the production paths against.
	"internal/snowcat.Evaluate":        "per-mapping reference evaluator for nest, mapping and trace tests",
	"internal/mapping.Space":           "whole-space enumerator behind the per-order reference tests",
	"internal/mapping.SpaceSize":       "mapspace size oracle for the perfect enumerator tests",
	"internal/mapping.SpaceImperfect":  "imperfect whole-space enumerator behind the reference tests",
	"internal/einsum.MustParse":        "panicking parse for test fixtures across packages",
	"internal/einsum.Einsum.RankShape": "rank-extent view the shape and snowcat tests build from",
	"internal/shape.ThreeSplits":       "the split order multilevel's keyed splits are pinned against",
	"internal/multilevel.Merge":        "combines per-range results in the range-cover parity tests",
	"internal/bound.GEMMPeakOI":        "closed-form GEMM peak OI the figure tests check curves against",

	// Test fakes.
	"internal/fleet/chaos":       "fault-injecting transport for the fleet chaos suite",
	"internal/shard.FailN":       "faultfs fault constructor for the shard and store fault suites",
	"internal/shard.KillAtIndex": "faultfs crash point for the kill-and-resume tests",

	// Facade API reached through the orojenesis.Curve and
	// ThreeLevelResult aliases.
	"internal/pareto.Curve.BufferFor":           "orojenesis.Curve method: smallest buffer reaching an access target",
	"internal/multilevel.Result.CompositionGap": "orojenesis.ThreeLevelResult method: joint vs probed L2 gap",

	// JSON interface methods, called by encoding/json.
	"internal/pareto.Curve.MarshalJSON":     "json.Marshaler",
	"internal/pareto.Curve.UnmarshalJSON":   "json.Unmarshaler",
	"internal/shard.Degraded.MarshalJSON":   "json.Marshaler",
	"internal/shard.Degraded.UnmarshalJSON": "json.Unmarshaler",
}

// funcKey names one audited declaration: its module-relative directory,
// its receiver type ("" for a package-level function) and its name.
type funcKey struct {
	dir, recv, name string
}

func (k funcKey) String() string {
	if k.recv == "" {
		return k.dir + "." + k.name
	}
	return k.dir + "." + k.recv + "." + k.name
}

// references is what the caller files mention: package-level functions
// per directory, and method names regardless of receiver.
type references struct {
	funcs   map[funcKey]bool
	methods map[string]bool
}

// checkCallers enforces the zero-caller rule: every func and method
// declared in a non-test file under internal/ (internal/tools excluded)
// must be referenced from a non-test file of the module (root package,
// cmd/, examples/, internal/) or of bench/, which is read as a caller
// only. Package-level functions resolve through the importing file's
// alias, or by bare name within their own directory; methods match by
// selector name alone, so the rule never flags a method wrongly but can
// miss an unused one. Entries of allow are exempt and checked for
// staleness.
func checkCallers(root string, allow map[string]string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	refs := references{funcs: map[funcKey]bool{}, methods: map[string]bool{}}
	decls := map[funcKey]token.Position{}
	fset := token.NewFileSet()
	for _, top := range []string{".", "cmd", "examples", "internal", "bench"} {
		dirs, err := goDirs(root, top)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			audited := strings.HasPrefix(dir, "internal/") && dir != "internal/tools" &&
				!strings.HasPrefix(dir, "internal/tools/")
			err := parseDir(fset, root, dir, func(f *ast.File) {
				collectRefs(f, dir, module, refs)
				if audited {
					collectDecls(fset, f, dir, decls)
				}
			})
			if err != nil {
				return nil, err
			}
		}
	}

	var problems []string
	used := map[string]bool{}
	for k, pos := range decls {
		if k.recv != "" && refs.methods[k.name] || k.recv == "" && refs.funcs[k] {
			continue
		}
		if entry, ok := allowEntry(allow, k); ok {
			used[entry] = true
			continue
		}
		what := "function"
		if k.recv != "" {
			what = "method"
		}
		problems = append(problems, fmt.Sprintf("%s:%d: %s %s has no production caller",
			filepath.ToSlash(pos.Filename), pos.Line, what, k))
	}
	for entry := range allow {
		if !used[entry] {
			problems = append(problems, fmt.Sprintf("zero-caller allowlist: %s names no function without a production caller; drop the entry", entry))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// allowEntry returns the allowlist entry covering k: its own key or a
// whole-package entry for its directory.
func allowEntry(allow map[string]string, k funcKey) (string, bool) {
	if _, ok := allow[k.String()]; ok {
		return k.String(), true
	}
	if _, ok := allow[k.dir]; ok {
		return k.dir, true
	}
	return "", false
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
}

// goDirs returns the module-relative directories holding Go files at or
// under top ("." is the root package alone), testdata and dot
// directories excluded; a missing top yields none.
func goDirs(root, top string) ([]string, error) {
	if top == "." {
		return []string{"."}, nil
	}
	if _, err := os.Stat(filepath.Join(root, top)); os.IsNotExist(err) {
		return nil, nil
	}
	var dirs []string
	err := filepath.WalkDir(filepath.Join(root, top), func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		return nil
	})
	return dirs, err
}

// parseDir parses every non-test Go file of dir and hands it to visit.
func parseDir(fset *token.FileSet, root, dir string, visit func(*ast.File)) error {
	entries, err := os.ReadDir(filepath.Join(root, dir))
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(f)
	}
	return nil
}

// collectDecls records every func and method declared in f, except main
// and init.
func collectDecls(fset *token.FileSet, f *ast.File, dir string, decls map[funcKey]token.Position) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
			continue
		}
		decls[funcKey{dir, recvName(fd), fd.Name.Name}] = fset.Position(fd.Pos())
	}
}

// recvName returns the receiver's base type name, or "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collectRefs records what f mentions: imported package-level functions
// through their alias, same-directory functions by bare name (a
// function's own name, declared or inside its body, does not count),
// and every selector name as a possible method.
func collectRefs(f *ast.File, dir, module string, refs references) {
	v := refVisitor{dir: dir, aliases: map[string]string{}, refs: refs}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		rel, ok := strings.CutPrefix(p, module+"/")
		if !ok {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		v.aliases[name] = rel
	}
	for _, d := range f.Decls {
		v.self = ""
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			v.walk(d)
			continue
		}
		if fd.Recv == nil {
			v.self = fd.Name.Name
		} else {
			v.walk(fd.Recv)
		}
		v.walk(fd.Type)
		if fd.Body != nil {
			v.walk(fd.Body)
		}
	}
}

// refVisitor walks one file's declarations for collectRefs; self is the
// package-level function being walked, whose own name is not a caller.
type refVisitor struct {
	dir, self string
	aliases   map[string]string
	refs      references
}

func (v *refVisitor) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			v.refs.methods[x.Sel.Name] = true
			if id, ok := x.X.(*ast.Ident); ok {
				if rel, ok := v.aliases[id.Name]; ok {
					v.refs.funcs[funcKey{rel, "", x.Sel.Name}] = true
					return false
				}
			}
			v.walk(x.X)
			return false
		case *ast.Ident:
			if x.Name != v.self {
				v.refs.funcs[funcKey{v.dir, "", x.Name}] = true
			}
		}
		return true
	})
}
