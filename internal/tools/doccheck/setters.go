package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// noSetterAllow lists the option fields under internal/ that may stay
// without a production setter, each with the reason. Keys are
// "dir.Type.Field". An entry that names nothing, or a field that has
// gained a production setter, is itself reported, so the list cannot go
// stale.
var noSetterAllow = map[string]string{
	// Facade API reached through the orojenesis.MHAConfig alias.
	"internal/fusion.MHAConfig.ElementSize": "orojenesis.MHAConfig field: bytes per element for a non-default precision",
}

// fieldKey names one audited option field: its module-relative
// directory, its struct type and its name.
type fieldKey struct {
	dir, typ, name string
}

func (k fieldKey) String() string { return k.dir + "." + k.typ + "." + k.name }

// checkSetters enforces the production-setter rule: every exported
// field of an exported struct type under internal/ (internal/tools
// excluded) whose name ends in Options or Config must be set from a
// non-test file outside its own package — the root package, cmd/,
// examples/, another internal/ package, or bench/, which is read as a
// setter only. A field is set where such code names it as a
// composite-literal key, assigns to it (=, op= or ++/--, directly or
// through one of its own fields, elements or pointees: o.F.G = v sets
// both F and G) or takes its address (&o.F, as flag.IntVar does).
// Fields with a json tag are decoded from outside the program and are
// exempt. Entries of allow are exempt and checked for staleness.
func checkSetters(l *loader, allow map[string]string) []string {
	fields := map[*types.Var]fieldKey{}
	set := map[*types.Var]bool{}
	for _, p := range l.pkgs {
		if p.audited() {
			addOptionFields(fields, p)
		}
		mark := func(id *ast.Ident) {
			if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.pkg {
				set[v.Origin()] = true
			}
		}
		// markPath marks every field selected along an assigned or
		// addressed expression.
		markPath := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.SelectorExpr:
					mark(x.Sel)
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						mark(id)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markPath(lhs)
					}
				case *ast.IncDecStmt:
					markPath(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markPath(n.X)
					}
				}
				return true
			})
		}
	}

	var problems []string
	used := map[string]bool{}
	for f, k := range fields {
		if set[f] {
			continue
		}
		if _, ok := allow[k.String()]; ok {
			used[k.String()] = true
			continue
		}
		pos := l.fset.Position(f.Pos())
		problems = append(problems, fmt.Sprintf("%s:%d: field %s has no production setter",
			filepath.ToSlash(pos.Filename), pos.Line, k))
	}
	for entry := range allow {
		if !used[entry] {
			problems = append(problems, fmt.Sprintf("no-setter allowlist: %s names no option field without a production setter; drop the entry", entry))
		}
	}
	sort.Strings(problems)
	return problems
}

// addOptionFields adds the audited fields of p to fields: the exported
// fields without a json tag of its exported, non-alias struct types
// named *Options or *Config.
func addOptionFields(fields map[*types.Var]fieldKey, p *loaded) {
	scope := p.pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() ||
			!strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Exported() && !tagged {
				fields[f] = fieldKey{p.dir, name, f.Name()}
			}
		}
	}
}
