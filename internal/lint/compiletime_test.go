package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The unit-flow rule (a dataflow fixpoint inferring which values are byte
// addresses and which are block, partition or chunk indexes) and
// mgmutate's derived unit-swap call redirects are retired: internal/meta
// gives each unit domain its own type. TestRetiredRulesAreTypeErrors keeps
// the guarantees they gave: it type-checks each former violation against
// the real module and requires a type error on exactly the lines marked
// "// want".

// moduleImporter resolves imports to the type-checked packages of a loaded
// module and, through their import lists, the standard-library packages
// they use.
type moduleImporter map[string]*types.Package

func newModuleImporter(pkgs []*Package) moduleImporter {
	m := moduleImporter{}
	var add func(*types.Package)
	add = func(tp *types.Package) {
		if _, ok := m[tp.Path()]; ok {
			return
		}
		m[tp.Path()] = tp
		for _, imp := range tp.Imports() {
			add(imp)
		}
	}
	for _, p := range pkgs {
		add(p.Types)
	}
	return m
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if tp, ok := m[path]; ok {
		return tp, nil
	}
	return nil, fmt.Errorf("no package %s in the loaded module", path)
}

// checkSnippet type-checks src as a package of its own and requires type
// errors on exactly the lines of src marked "// want".
func checkSnippet(t *testing.T, imp types.Importer, src string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "snippet.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	conf := types.Config{Importer: imp, Error: func(err error) {
		pos := fset.Position(err.(types.Error).Pos)
		if pos.Filename != "snippet.go" {
			t.Errorf("type error outside the snippet: %v", err)
			return
		}
		seen[pos.Line] = true
	}}
	_, _ = conf.Check("unimem/internal/snippet", fset, []*ast.File{f}, nil)
	var got, want []int
	for l := range seen {
		got = append(got, l)
	}
	sort.Ints(got)
	for i, line := range strings.Split(src, "\n") {
		if strings.HasSuffix(line, "// want") {
			want = append(want, i+1)
		}
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("type errors on lines %v, want exactly %v in\n%s", got, want, src)
	}
}

func TestRetiredRulesAreTypeErrors(t *testing.T) {
	pkgs, err := Load("../..", LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	imp := newModuleImporter(pkgs)

	// The four unitflow_bad bodies, now against the real meta API, plus
	// the two conversion slips the retyping itself caught.
	t.Run("unit-flow", func(t *testing.T) {
		checkSnippet(t, imp, `package snippet

import "unimem/internal/meta"

// chunkOf launders a chunk index through a call boundary (BadAdd).
func chunkOf(addr uint64) uint64 {
	return meta.ChunkIndex(addr) // want
}

// BadArg passes a chunk index where ChunkBase expects a byte address.
func BadArg(addr uint64) uint64 {
	c := meta.ChunkIndex(addr)
	return meta.ChunkBase(c) // want
}

// BadCmp compares a block index against a partition index.
func BadCmp(addr uint64) bool {
	return meta.BlockIndex(addr) < meta.PartIndex(addr) // want
}

// BadAccum accumulates raw chunk indexes into a byte total.
func BadAccum(addr uint64) uint64 {
	total := meta.ChunkBase(addr)
	total += meta.ChunkIndex(addr) // want
	return total
}

// BadBase scales a chunk index into an address without ChunkIdx.Base.
func BadBase(g *meta.Geometry, addr uint64) uint64 {
	var base uint64 = meta.ChunkIndex(addr) * meta.ChunkSize // want
	return g.GTEntryAddr(meta.ChunkIndex(addr)) + base
}

// BadFirstBlock uses a partition number as a block within the chunk.
func BadFirstBlock(t *meta.Table, addr uint64) bool {
	b := meta.PartIndex(addr) * meta.BlocksPerPartition
	return t.Pending(meta.ChunkIndex(addr), b) // want
}
`)
	})

	// mgmutate's unit-swap derived these call redirects from pairs of
	// helpers with identical Go signatures but different unit domains;
	// distinct signatures leave nothing to derive.
	t.Run("unit-swap-partners", func(t *testing.T) {
		meta := imp[metaPath]
		if meta == nil {
			t.Fatalf("%s not loaded", metaPath)
		}
		geom := meta.Scope().Lookup("Geometry").Type()
		sig := func(name string) *types.Signature {
			if obj := meta.Scope().Lookup(name); obj != nil {
				return obj.Type().(*types.Signature)
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(geom), false, meta, name)
			if obj == nil {
				t.Fatalf("meta has no function or Geometry method %s", name)
			}
			return obj.Type().(*types.Signature)
		}
		for _, pair := range [][2]string{
			{"Blocks", "Chunks"}, {"Chunks", "Blocks"},
			{"CounterEntryIndex", "CounterLineAddr"}, {"CounterLineAddr", "CounterEntryIndex"},
			{"MetadataBytes", "Blocks"},
			{"AlignBlock", "BlockIndex"}, {"BlockIndex", "AlignBlock"},
			{"ChunkBase", "BlockIndex"}, {"ChunkIndex", "AlignBlock"},
			{"BlockInChunk", "PartIndex"}, {"PartIndex", "BlockInChunk"},
		} {
			if types.Identical(sig(pair[0]), sig(pair[1])) {
				t.Errorf("%s and %s share the signature %s: a swap between them still compiles", pair[0], pair[1], sig(pair[0]))
			}
		}
	})
}
