// Package registry is the single name→constructor table of the library:
// every topology generator, broadcast algorithm, adversary, and epoch
// schedule (the topology-dynamics layer) is registered here under a stable
// name with a self-describing parameter schema. The declarative
// Scenario/Sweep layer (internal/spec), both CLIs, and the experiment
// harness all resolve names through this package, so a name that works in
// one place works everywhere — and an unknown name fails everywhere with
// the same typed error listing the valid names.
//
// Construction is deterministic: a registered constructor derives all its
// randomness from the seed it is handed, never from global state, so the
// same (name, n, seed, params) triple always builds the same value.
package registry

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// Params is a JSON-friendly named-parameter bag for a registered
// constructor. Numeric values may be any Go numeric type (JSON decoding
// yields float64; integer parameters accept any value that is exactly an
// integer), and list-of-int parameters accept []int or []any of numbers.
// Unknown keys are rejected at validation time so typos fail loudly.
type Params map[string]any

// ParamDoc describes one parameter of a registered constructor.
type ParamDoc struct {
	// Name is the parameter key in Params.
	Name string
	// Type is the human-readable type: "int", "float", or "[]int".
	Type string
	// Default is the value used when the key is absent.
	Default any
	// Doc is a one-line description.
	Doc string
}

// Entry is the self-describing header of a registered constructor.
type Entry struct {
	// Name is the stable lookup key (e.g. "geometric").
	Name string
	// Doc is a one-line description of what the constructor builds.
	Doc string
	// Params documents the accepted parameters in display order.
	Params []ParamDoc
	// IgnoresN marks topology entries whose size comes entirely from
	// parameters (layered chains): the requested n has no effect on the
	// built network. Sweeping an n axis over such a topology would run
	// byte-identical duplicate cells, so the sweep layer rejects it.
	IgnoresN bool
}

// AcceptsParam reports whether the entry's schema documents the key.
func (e Entry) AcceptsParam(name string) bool { return e.paramIndex(name) >= 0 }

// ErrUnknownName reports a failed name lookup in one of the registries. It
// carries the full list of valid names and, when the unknown name is a near
// miss, edit-distance suggestions — so the "silent name drift" failure mode
// (a bare `unknown topology "x"` with no hint of what would have worked)
// cannot recur.
type ErrUnknownName struct {
	// Kind is "topology", "algorithm", "adversary", or "schedule".
	Kind string
	// Name is the name that failed to resolve.
	Name string
	// Known lists every registered name, sorted.
	Known []string
	// Suggestions lists registered names within a small edit distance of
	// Name, closest first.
	Suggestions []string
}

// Error implements error.
func (e *ErrUnknownName) Error() string {
	var sb strings.Builder
	if e.Name == "" {
		fmt.Fprintf(&sb, "missing %s name", e.Kind)
	} else {
		fmt.Fprintf(&sb, "unknown %s %q", e.Kind, e.Name)
	}
	if len(e.Suggestions) > 0 {
		fmt.Fprintf(&sb, " (did you mean %q?)", e.Suggestions[0])
	}
	fmt.Fprintf(&sb, "; valid %s names: %s", e.Kind, strings.Join(e.Known, ", "))
	return sb.String()
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// unknownName builds the typed lookup error with suggestions. An empty
// name is a missing field, not a near miss — it gets no suggestions (every
// name is trivially "close" to "").
func unknownName(kind, name string, known []string) *ErrUnknownName {
	if name == "" {
		return &ErrUnknownName{Kind: kind, Known: known}
	}
	type scored struct {
		name string
		d    int
	}
	var close []scored
	for _, k := range known {
		if d := editDistance(name, k); d <= 2 || strings.HasPrefix(k, name) {
			close = append(close, scored{k, d})
		}
	}
	sort.Slice(close, func(i, j int) bool {
		if close[i].d != close[j].d {
			return close[i].d < close[j].d
		}
		return close[i].name < close[j].name
	})
	e := &ErrUnknownName{Kind: kind, Name: name, Known: known}
	for _, s := range close {
		e.Suggestions = append(e.Suggestions, s.name)
	}
	return e
}

// entry pairs an Entry header with its constructor, whose shape B is fixed
// by the entry's kind, and with its parameter defaults, decoded once.
type entry[B any] struct {
	Entry
	build    B
	defaults args
}

// kind is one registry table: every entry of one constructor shape B, and
// the noun ("topology", "algorithm", ...) its lookup errors use.
type kind[B any] struct {
	noun    string
	entries map[string]*entry[B]
}

// newKind builds a registry table, decoding every entry's defaults. A
// default that does not decode is a table bug and panics at start-up.
func newKind[B any](noun string, entries map[string]*entry[B]) kind[B] {
	for _, e := range entries {
		e.defaults = args{doc: e.Params, val: make([]arg, len(e.Params))}
		for i, d := range e.Params {
			if err := d.decode(d.Default, &e.defaults.val[i]); err != nil {
				panic(fmt.Sprintf("registry: entry %q: bad default: %v", e.Name, err))
			}
		}
	}
	return kind[B]{noun, entries}
}

// lookup resolves name and decodes p against the entry's schema. An unknown
// name fails with *ErrUnknownName; a bad parameter fails as "<noun> <err>".
func (k kind[B]) lookup(name string, p Params) (B, args, error) {
	var zero B
	e, ok := k.entries[name]
	if !ok {
		return zero, args{}, unknownName(k.noun, name, slices.Sorted(maps.Keys(k.entries)))
	}
	a, err := e.decode(p)
	if err != nil {
		return zero, args{}, fmt.Errorf("%s %w", k.noun, err)
	}
	return e.build, a, nil
}

// list returns the kind's Entry headers, sorted by name.
func (k kind[B]) list() []Entry {
	out := make([]Entry, 0, len(k.entries))
	for _, e := range k.entries {
		out = append(out, e.Entry)
	}
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// info returns the Entry header of the named entry.
func (k kind[B]) info(name string) (Entry, bool) {
	if e, ok := k.entries[name]; ok {
		return e.Entry, true
	}
	return Entry{}, false
}

// arg is one decoded parameter: the field its ParamDoc.Type names is set.
type arg struct {
	i  int
	f  float64
	is []int
}

// args is a decoded Params bag: one arg per documented parameter of an
// entry, in schema order, defaults filled in. Its readers panic on a name
// or type the schema lacks, which is a registry table bug, not a user error.
type args struct {
	doc []ParamDoc
	val []arg
}

func (a args) get(name, typ string) arg {
	for i, d := range a.doc {
		if d.Name == name && d.Type == typ {
			return a.val[i]
		}
	}
	panic(fmt.Sprintf("registry: no %s parameter %q in the entry's schema", typ, name))
}

func (a args) int(name string) int       { return a.get(name, "int").i }
func (a args) float(name string) float64 { return a.get(name, "float").f }
func (a args) ints(name string) []int    { return a.get(name, "[]int").is }

// decode validates a Params bag against the entry's schema — every provided
// key must be documented and its value must coerce to the documented type —
// and returns the typed args. Keys are visited in sorted order, so a bag
// with several bad keys always reports the same one.
func (e *entry[B]) decode(p Params) (args, error) {
	if len(p) == 0 {
		return e.defaults, nil
	}
	a := args{doc: e.Params, val: slices.Clone(e.defaults.val)}
	keys := make([]string, 0, len(p))
	for key := range p {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		i := e.paramIndex(key)
		if i < 0 {
			return args{}, fmt.Errorf("%q: unknown parameter %q (accepted: %s)",
				e.Name, key, e.paramNames())
		}
		if err := e.Params[i].decode(p[key], &a.val[i]); err != nil {
			return args{}, err
		}
	}
	return a, nil
}

// decode coerces one parameter value to the documented type, into dst.
func (d ParamDoc) decode(v any, dst *arg) (err error) {
	switch d.Type {
	case "int":
		dst.i, err = toInt(d.Name, v)
	case "float":
		dst.f, err = toFloat(d.Name, v)
	case "[]int":
		dst.is, err = toInts(d.Name, v)
	default:
		panic(fmt.Sprintf("registry: parameter %q has unhandled type %q", d.Name, d.Type))
	}
	return err
}

// paramIndex returns the index of the named parameter in the schema, or -1.
func (e Entry) paramIndex(name string) int {
	return slices.IndexFunc(e.Params, func(d ParamDoc) bool { return d.Name == name })
}

func (e Entry) paramNames() string {
	if len(e.Params) == 0 {
		return "none"
	}
	names := make([]string, len(e.Params))
	for i, d := range e.Params {
		names[i] = d.Name
	}
	return strings.Join(names, ", ")
}

// toFloat reads a float parameter value.
func toFloat(name string, v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	}
	return 0, fmt.Errorf("parameter %q: want a number, got %T", name, v)
}

// toInt reads an integer parameter value; float values are accepted only
// when they are exactly integral (JSON decodes all numbers as float64).
func toInt(name string, v any) (int, error) {
	switch x := v.(type) {
	case int:
		return x, nil
	case int64:
		return int(x), nil
	case float64:
		if x != math.Trunc(x) {
			return 0, fmt.Errorf("parameter %q: want an integer, got %v", name, x)
		}
		return int(x), nil
	}
	return 0, fmt.Errorf("parameter %q: want an integer, got %T", name, v)
}

// toInts reads a list-of-int parameter value ([]int, or []any of integral
// numbers as produced by JSON decoding).
func toInts(name string, v any) ([]int, error) {
	switch xs := v.(type) {
	case []int:
		return xs, nil
	case []any:
		out := make([]int, len(xs))
		for i, x := range xs {
			n, err := toInt(name, x)
			if err != nil {
				return nil, fmt.Errorf("parameter %q[%d]: want an integer, got %v", name, i, x)
			}
			out[i] = n
		}
		return out, nil
	}
	return nil, fmt.Errorf("parameter %q: want a list of integers, got %T", name, v)
}

// WriteList renders every registry — topologies, algorithms, adversaries,
// schedules — with per-entry parameter docs. Both CLIs' -list flags print
// exactly this, so the output is golden-tested once and shared.
func WriteList(w io.Writer) {
	for i, s := range sections() {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s:\n", s.kind)
		for _, e := range s.entries {
			fmt.Fprintf(w, "  %-18s %s\n", e.Name, e.Doc)
			for _, d := range e.Params {
				def := ""
				if d.Default != nil {
					def = fmt.Sprintf(" (default %v)", d.Default)
				}
				fmt.Fprintf(w, "      %-16s %-6s %s%s\n", d.Name, d.Type, d.Doc, def)
			}
		}
	}
}

// section is one registry table for the list/markdown renderers.
type section struct {
	kind    string
	entries []Entry
}

// sections returns the four registry tables in display order.
func sections() []section {
	return []section{
		{"topologies", Topologies()},
		{"algorithms", Algorithms()},
		{"adversaries", Adversaries()},
		{"schedules", Schedules()},
	}
}
