// Package cachekey enforces cache-key hygiene on the config structs
// that flow into harness.CacheKey. The content-addressed result cache
// keys on the JSON encoding of a task's config, so a field the encoder
// does not see is a field two *different* experiments can share a cached
// result through — the silent-corruption dual of a snapshot field that
// never enters the codec.
//
// For every struct type that reaches CacheKey's config argument (via a
// harness.Task literal's Config element or a direct CacheKey call), each
// field must be exactly one of:
//
//   - JSON-visible: exported, not tagged json:"-" — it enters the key;
//   - execution-only: tagged json:"-" (or unexported, which the encoder
//     skips the same way) AND annotated //synclint:execonly -- <reason>
//     recording why results cannot depend on it (the PR 8 Workers
//     pattern, made mandatory).
//
// JSON-visible fields tagged omitempty additionally need
// //synclint:zerokey -- <reason>: omitempty drops the zero value from
// the key, so "field absent" and "field zero" become the same cache
// entry. That is deliberate for additive config growth (a new phased-cut
// flag must not invalidate every old key), and wrong for a field whose
// zero is a meaningful setting — the reason must say which one this is.
//
// The same visibility rule covers the cut state of a phased mpirun: the
// type passed as internal/experiments.runPhases' state argument is
// JSON-encoded into every cut snapshot, so a field the encoder skips is a
// field a resumed run silently zeroes. Those structs are checked like
// configs, recursing through slice and struct fields — except for the
// omitempty rule: runPhases decodes into a zero value, so an omitted zero
// comes back as the zero it was.
//
// What the analyzer cannot prove: that an execonly field truly does not
// influence results (that is what the byte-identity tests at different
// worker counts are for), or key hygiene for configs passed as
// pre-formed interface values whose concrete type never appears at a
// call site.
package cachekey

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"hclocksync/internal/analysis"
)

// harnessPkg is the import path owning Task and CacheKey; a variable so
// the analysistest fixture, type-checked under its own path, can stand
// in for the real package.
var harnessPkg = "hclocksync/internal/harness"

// phasesPkg owns runPhases, whose state argument rides every cut snapshot
// as JSON; a variable for the same reason as harnessPkg.
var phasesPkg = "hclocksync/internal/experiments"

// use names what a checked struct's JSON encoding feeds, for diagnostics.
type use struct {
	noun    string // "<noun> field <ref> ..."
	skipped string // what happens to a field the encoder skips
	enters  string // what an encoded field does
	omitted string // what happens to a zero omitempty field; "" if nothing
}

var (
	keyUse = use{"cache-key", "never enters the key", "enters the key",
		"drops out of the key, so a zero config and an absent one share cached results"}
	stateUse = use{"cut-state", "never enters the cut snapshot, so a resumed run silently zeroes it", "is saved at the cut", ""}
)

var Analyzer = &analysis.Analyzer{
	Name:       "cachekey",
	Doc:        "config structs reaching harness.CacheKey, and cut state passed to runPhases, must have every field JSON-visible or an audited execution-only knob",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	structs := analysis.BuildStructIndex(pass.Prog.Pkgs)

	// Collect the root types: every concrete struct type that appears as
	// a harness.Task Config element or as CacheKey's config argument, and
	// every struct type runPhases' state argument mentions, anywhere in
	// the program.
	roots, states := map[string]bool{}, map[string]bool{}
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					collectTaskLit(pkg, n, roots)
				case *ast.CallExpr:
					collectCacheKeyCall(pkg, n, roots)
					collectStateArg(pkg, n, states)
				}
				return true
			})
		}
	}

	for _, r := range []struct {
		roots map[string]bool
		use   use
	}{{roots, keyUse}, {states, stateUse}} {
		checked := map[string]bool{}
		for key := range r.roots { //synclint:ordered -- diagnostics are position-sorted by the framework afterwards
			if sd, ok := structs[key]; ok {
				check(pass, structs, sd, r.use, checked)
			}
		}
	}
	return nil
}

// collectTaskLit records the static type of the Config element of a
// harness.Task composite literal.
func collectTaskLit(pkg *analysis.Package, lit *ast.CompositeLit, roots map[string]bool) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Name() != "Task" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != harnessPkg {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "Config" {
			continue
		}
		if ref, ok := analysis.NamedStructRef(pkg, kv.Value); ok {
			roots[ref.String()] = true
		}
	}
}

// collectCacheKeyCall records the static type of the config argument of
// a direct harness.CacheKey call. Interface-typed arguments are skipped:
// the concrete type was recorded where the value was built.
func collectCacheKeyCall(pkg *analysis.Package, call *ast.CallExpr, roots map[string]bool) {
	if !analysis.IsPkgFunc(pkg.Info, call, harnessPkg, "CacheKey") {
		return
	}
	const configArg = 4
	if len(call.Args) <= configArg {
		return
	}
	arg := call.Args[configArg]
	if tv, ok := pkg.Info.Types[arg]; ok {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			return
		}
	}
	if ref, ok := analysis.NamedStructRef(pkg, arg); ok {
		roots[ref.String()] = true
	}
}

// collectStateArg records the struct type mentioned by the state argument
// of a runPhases call, looking through the pointer and any slices.
func collectStateArg(pkg *analysis.Package, call *ast.CallExpr, states map[string]bool) {
	if !analysis.IsPkgFunc(pkg.Info, call, phasesPkg, "runPhases") {
		return
	}
	const stateArg = 3
	if len(call.Args) <= stateArg {
		return
	}
	if ref, ok := analysis.NamedStructRef(pkg, call.Args[stateArg]); ok {
		states[ref.String()] = true
	}
}

// check audits one struct for use u and recurses into the JSON-visible
// struct-typed fields (they are encoded too).
func check(pass *analysis.ProgramPass, structs analysis.StructIndex, sd *analysis.StructDecl, u use, checked map[string]bool) {
	if checked[sd.Ref().String()] {
		return
	}
	checked[sd.Ref().String()] = true
	dirs := pass.Prog.Dirs(sd.Pkg)
	for _, fld := range sd.Fields {
		ref := analysis.FieldRef{Pkg: sd.Pkg.PkgPath, Type: sd.Name, Field: fld.Name}
		jsonTag := reflect.StructTag(fld.Tag).Get("json")
		name, opts, _ := strings.Cut(jsonTag, ",")
		exported := ast.IsExported(fld.Name)
		switch {
		case name == "-" && jsonTag == "-":
			// Execution-only by tag: must carry the audit.
			if _, ok := sd.FieldDirective(dirs, fld, analysis.DirExeconly); !ok {
				pass.Reportf(sd.Pkg, fld.Pos(), "%s field %s is tagged json:\"-\" but not annotated: results must not depend on it; audit with //synclint:execonly -- <reason> (or drop the tag so it %s)", u.noun, ref, u.enters)
			}
		case !exported:
			// The JSON encoder skips unexported fields, so this is an
			// untagged execution-only field.
			if _, ok := sd.FieldDirective(dirs, fld, analysis.DirExeconly); !ok {
				pass.Reportf(sd.Pkg, fld.Pos(), "%s field %s is unexported and %s: export it, or audit with //synclint:execonly -- <reason>", u.noun, ref, u.skipped)
			}
		default:
			if u.omitted != "" && hasOpt(opts, "omitempty") {
				if _, ok := sd.FieldDirective(dirs, fld, analysis.DirZerokey); !ok {
					pass.Reportf(sd.Pkg, fld.Pos(), "%s field %s is omitempty: the zero value %s; audit with //synclint:zerokey -- <reason> (or remove omitempty)", u.noun, ref, u.omitted)
				}
			}
			if sub, ok := analysis.NamedStructRef(sd.Pkg, fld.Type); ok {
				if subDecl, ok := structs[sub.String()]; ok {
					check(pass, structs, subDecl, u, checked)
				}
			}
		}
	}
}

// hasOpt reports whether the comma-separated json tag options contain
// opt.
func hasOpt(opts, opt string) bool {
	for opts != "" {
		var o string
		o, opts, _ = strings.Cut(opts, ",")
		if o == opt {
			return true
		}
	}
	return false
}
