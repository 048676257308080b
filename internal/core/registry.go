package core

import (
	"fmt"
	"sync"
)

// Binding is one registered DDP model: the Model value that configurations
// and experiment cells carry, a unique display name, and the two policy
// implementations the protocol layer resolves the model's dimensions to.
//
// The 25 canonical bindings are pre-registered with VisImpl == Model.C and
// DurImpl == Model.P. Custom bindings (see Register) receive fresh Model
// codes outside the canonical matrix and alias them onto existing policy
// implementations — the mechanism behind named hybrids such as a
// "strong-local" deployment that runs the Linearizable visibility policy
// with Eventual durability under grouped replication.
type Binding struct {
	// Name uniquely identifies the binding. Canonical bindings use the
	// paper's "<C, P>" notation; custom bindings choose their own.
	Name string

	// Model is the value carried by configurations. For custom bindings its
	// codes lie outside the canonical 5x5 matrix.
	Model Model

	// VisImpl and DurImpl select the canonical policy implementations that
	// run the binding's consistency and persistency dimensions.
	VisImpl Consistency
	DurImpl Persistency
}

// Custom reports whether b was registered via Register rather than being one
// of the canonical 25 matrix cells.
func (b Binding) Custom() bool { return b.Model.C >= customBase }

// customBase is the first model code handed to custom bindings. Keeping the
// custom code space disjoint from the canonical enums means a custom Model
// can never be mistaken for (or compare equal to) a matrix cell.
const customBase = 1000

var registry = struct {
	sync.RWMutex
	custom  []Binding           // registration order
	byModel map[Model]Binding   // custom bindings only
	byName  map[string]struct{} // all names, collision guard
}{
	byModel: map[Model]Binding{},
}

// names of the canonical 25, built lazily to avoid an init cycle through
// Model.String (which consults the registry for custom codes).
var canonicalNamesOnce sync.Once

func ensureCanonicalNames() {
	canonicalNamesOnce.Do(func() {
		if registry.byName == nil {
			registry.byName = make(map[string]struct{}, 25)
		}
		for _, m := range AllModels() {
			registry.byName[m.String()] = struct{}{}
		}
	})
}

// Register adds a custom binding: name must be unique, and vis/dur must name
// canonical policy implementations. It returns the fresh Model value the
// binding answers to. Registration is typically done once at program start;
// it is safe for concurrent use with lookups.
func Register(name string, vis Consistency, dur Persistency) (Model, error) {
	if name == "" {
		return Model{}, fmt.Errorf("core: binding name must be non-empty")
	}
	if !canonicalC(vis) {
		return Model{}, fmt.Errorf("core: unknown consistency implementation %v", vis)
	}
	if !canonicalP(dur) {
		return Model{}, fmt.Errorf("core: unknown persistency implementation %v", dur)
	}
	ensureCanonicalNames()
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		return Model{}, fmt.Errorf("core: binding %q already registered", name)
	}
	code := customBase + len(registry.custom)
	b := Binding{
		Name:    name,
		Model:   Model{C: Consistency(code), P: Persistency(code)},
		VisImpl: vis,
		DurImpl: dur,
	}
	registry.custom = append(registry.custom, b)
	registry.byModel[b.Model] = b
	registry.byName[name] = struct{}{}
	return b.Model, nil
}

// RegistryCheckpoint records the custom bindings registered so far and
// returns a function that rolls the registry back to them, forgetting every
// binding registered since. It exists for tests: a test that registers a
// fixed name defers the rollback, so repeated runs (go test -count=N) start
// from the same registry. Rolled-back model codes are handed out again, so
// a Model value from a rolled-back binding must not outlive the rollback.
func RegistryCheckpoint() (rollback func()) {
	registry.RLock()
	n := len(registry.custom)
	registry.RUnlock()
	return func() {
		registry.Lock()
		defer registry.Unlock()
		for _, b := range registry.custom[n:] {
			delete(registry.byModel, b.Model)
			delete(registry.byName, b.Name)
		}
		registry.custom = registry.custom[:n]
	}
}

func canonicalC(c Consistency) bool { return c >= Linearizable && c <= Eventual }
func canonicalP(p Persistency) bool { return p >= Strict && p <= EventualP }

// Bindings lists every registered binding: the canonical 25 in matrix order
// (consistency-major, the order of Figure 6's groups), then custom bindings
// in registration order.
func Bindings() []Binding {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Binding, 0, 25+len(registry.custom))
	for _, m := range AllModels() {
		out = append(out, Binding{Name: m.String(), Model: m, VisImpl: m.C, DurImpl: m.P})
	}
	out = append(out, registry.custom...)
	return out
}

// RegisteredModels lists the Model of every registered binding — what
// experiment matrices enumerate instead of hard-coding AllModels.
func RegisteredModels() []Model {
	registry.RLock()
	defer registry.RUnlock()
	out := AllModels()
	for _, b := range registry.custom {
		out = append(out, b.Model)
	}
	return out
}

// BindingFor returns the binding registered for m: the synthesized canonical
// binding for matrix cells, the custom binding for registered models, and
// ok == false for anything else.
func BindingFor(m Model) (Binding, bool) {
	if canonicalC(m.C) && canonicalP(m.P) {
		return Binding{Name: m.String(), Model: m, VisImpl: m.C, DurImpl: m.P}, true
	}
	registry.RLock()
	defer registry.RUnlock()
	b, ok := registry.byModel[m]
	return b, ok
}

// ImplOf resolves m to the canonical model whose policy implementations run
// it: m itself for matrix cells, the registered (VisImpl, DurImpl) pair for
// custom bindings. Unregistered custom codes resolve to the Baseline so a
// stray value fails loudly in comparisons rather than panicking mid-run;
// protocol construction validates models before use.
func ImplOf(m Model) Model {
	if canonicalC(m.C) && canonicalP(m.P) {
		return m
	}
	registry.RLock()
	b, ok := registry.byModel[m]
	registry.RUnlock()
	if !ok {
		return Baseline
	}
	return Model{C: b.VisImpl, P: b.DurImpl}
}

// customName returns the registered display name for a custom model.
func customName(m Model) (string, bool) {
	registry.RLock()
	b, ok := registry.byModel[m]
	registry.RUnlock()
	return b.Name, ok
}

// implC resolves a custom consistency code to its implementing canonical
// model; canonical codes pass through.
func implC(c Consistency) Consistency {
	if canonicalC(c) {
		return c
	}
	registry.RLock()
	defer registry.RUnlock()
	if i := int(c) - customBase; i >= 0 && i < len(registry.custom) {
		return registry.custom[i].VisImpl
	}
	return c
}

// implP resolves a custom persistency code to its implementing canonical
// model; canonical codes pass through.
func implP(p Persistency) Persistency {
	if canonicalP(p) {
		return p
	}
	registry.RLock()
	defer registry.RUnlock()
	if i := int(p) - customBase; i >= 0 && i < len(registry.custom) {
		return registry.custom[i].DurImpl
	}
	return p
}

// lookupName resolves a registered binding name (exact match) to its model.
func lookupName(s string) (Model, bool) {
	registry.RLock()
	defer registry.RUnlock()
	for _, b := range registry.custom {
		if b.Name == s {
			return b.Model, true
		}
	}
	return Model{}, false
}
