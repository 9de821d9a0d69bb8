// Package snapfields enforces checkpoint field coverage: every struct
// reachable from a //synclint:snapshot-annotated state root must have
// every field referenced in both an encode* and a decode* codec
// function, or carry a reasoned //synclint:nosnap escape.
//
// The invariant this guards is the repo's byte-identical checkpoint
// round-trip: the codecs in internal/checkpoint enumerate fields by
// hand, so "you added a field but forgot to wire it" is otherwise a
// silent corruption that no compiler error and no existing golden
// catches until a restore diverges. PR 8's trace-digest gap (fields added to the trace record
// never entered the hash) is the same failure mode one layer over.
//
// What the analyzer proves: every reachable field NAME appears in at
// least one encode-side and one decode-side codec, where "appears" is a
// field selection on the owning struct type or a key (or positional
// slot) in a composite literal of that type. What it cannot prove: that
// the reference actually round-trips the value (a codec could read a
// field and discard it), or anything about codecs built by reflection.
// It is a coverage lower bound — the checkpoint differential tests
// remain the ground truth for value fidelity.
//
// The analyzer is program-level: state roots live in internal/{mpi,
// cluster, sim, checkpoint}, while the codecs that discharge their
// obligations live in internal/checkpoint, so no single-package view can
// decide coverage. The experiments' cut state is not hand-coded: it rides
// the snapshot as JSON, and the cachekey analyzer holds its fields to the
// JSON-visibility rule instead. When a run loads no encode or no decode codecs at all (a subset
// invocation like `synclint ./internal/mpi`), the analyzer stays silent
// rather than flagging every field.
package snapfields

import (
	"go/ast"
	"go/types"
	"strings"

	"hclocksync/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:       "snapfields",
	Doc:        "every field reachable from a //synclint:snapshot root must be wired through both encode* and decode* codecs",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	structs := analysis.BuildStructIndex(pass.Prog.Pkgs)

	// Collect field references from every codec function in the program.
	enc, dec := map[string]bool{}, map[string]bool{}
	nEnc, nDec := 0, 0
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				switch {
				case hasFold(name, "encode"):
					nEnc++
					collectRefs(pkg, fd.Body, enc)
				case hasFold(name, "decode"):
					nDec++
					collectRefs(pkg, fd.Body, dec)
				}
			}
		}
	}
	if nEnc == 0 || nDec == 0 {
		// Subset run without the codec packages: coverage is undecidable,
		// so do not flag anything.
		return nil
	}

	checked := map[string]bool{}
	for _, sd := range structs { //synclint:ordered -- diagnostics are position-sorted by the framework afterwards
		if _, ok := analysis.DocDirective(sd.Doc, analysis.DirSnapshot); !ok {
			continue
		}
		check(pass, structs, sd, enc, dec, checked)
	}
	return nil
}

// check walks one reachable struct, reporting uncovered fields and
// recursing into field types that are themselves named structs declared
// in the loaded packages.
func check(pass *analysis.ProgramPass, structs analysis.StructIndex, sd *analysis.StructDecl, enc, dec, checked map[string]bool) {
	if checked[sd.Ref().String()] {
		return
	}
	checked[sd.Ref().String()] = true
	dirs := pass.Prog.Dirs(sd.Pkg)
	for _, fld := range sd.Fields {
		if _, ok := sd.FieldDirective(dirs, fld, analysis.DirNosnap); ok {
			// Escaped fields discharge their whole subtree: the reason on
			// the directive owns the audit.
			continue
		}
		ref := analysis.FieldRef{Pkg: sd.Pkg.PkgPath, Type: sd.Name, Field: fld.Name}
		if !enc[ref.String()] {
			pass.Reportf(sd.Pkg, fld.Pos(), "snapshot field %s is never referenced in an encode* codec: a checkpoint written now silently drops it; wire it through the encoder or escape with //synclint:nosnap -- <reason>", ref)
		}
		if !dec[ref.String()] {
			pass.Reportf(sd.Pkg, fld.Pos(), "snapshot field %s is never referenced in a decode* codec: a restore silently zeroes it; wire it through the decoder or escape with //synclint:nosnap -- <reason>", ref)
		}
		if sub, ok := analysis.NamedStructRef(sd.Pkg, fld.Type); ok {
			if subDecl, ok := structs[sub.String()]; ok {
				check(pass, structs, subDecl, enc, dec, checked)
			}
		}
	}
}

// collectRefs records every struct-field reference in a codec body:
// field selections, keyed composite-literal elements, and positional
// composite-literal slots.
func collectRefs(pkg *analysis.Package, body *ast.BlockStmt, into map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := pkg.Info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if ref, ok := analysis.NamedStructOf(sel.Recv()); ok {
				ref.Field = n.Sel.Name
				into[ref.String()] = true
			}
		case *ast.CompositeLit:
			tv, ok := pkg.Info.Types[n]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok {
				return true
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			ref := analysis.FieldRef{Pkg: named.Obj().Pkg().Path(), Type: named.Obj().Name()}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						ref.Field = id.Name
						into[ref.String()] = true
					}
					continue
				}
				// Positional literal: slot i names field i, and the
				// compiler has already enforced that every field is
				// present.
				if i < st.NumFields() {
					ref.Field = st.Field(i).Name()
					into[ref.String()] = true
				}
			}
		}
		return true
	})
}

// hasFold reports whether name starts with prefix in either case
// convention (encodeEnv, EncodeSession).
func hasFold(name, prefix string) bool {
	return strings.HasPrefix(name, prefix) ||
		strings.HasPrefix(name, strings.ToUpper(prefix[:1])+prefix[1:])
}
