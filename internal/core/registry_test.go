package core

import (
	"strings"
	"testing"
)

func TestRegisterCustomBinding(t *testing.T) {
	t.Cleanup(RegistryCheckpoint())
	m, err := Register("test-strong-local", Linearizable, EventualP)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if m.C < customBase || m.P < customBase {
		t.Fatalf("custom model %+v collides with the canonical code space", m)
	}
	if got := m.String(); got != "test-strong-local" {
		t.Fatalf("custom model renders %q, want its registered name", got)
	}
	impl := ImplOf(m)
	if impl != (Model{C: Linearizable, P: EventualP}) {
		t.Fatalf("ImplOf(%v) = %v, want <Linearizable, Eventual>", m, impl)
	}
	parsed, err := ParseModel("test-strong-local")
	if err != nil || parsed != m {
		t.Fatalf("ParseModel(name) = %v, %v; want %v", parsed, err, m)
	}
	b, ok := BindingFor(m)
	if !ok || !b.Custom() || b.VisImpl != Linearizable || b.DurImpl != EventualP {
		t.Fatalf("BindingFor(%v) = %+v, %v", m, b, ok)
	}
	// Derived semantics resolve through the implementation pair.
	if UsesInvAckVal(m.C) != true {
		t.Fatalf("UsesInvAckVal should resolve custom codes through their impl")
	}
	if CarriesCausalHistory(m.C) {
		t.Fatalf("a Linearizable-impl custom code must not carry cauhist")
	}
}

func TestRegisterValidation(t *testing.T) {
	t.Cleanup(RegistryCheckpoint())
	if _, err := Register("", Linearizable, Strict); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if _, err := Register("test-bad-c", Consistency(99), Strict); err == nil {
		t.Fatal("non-canonical consistency impl must be rejected")
	}
	if _, err := Register("test-bad-p", Linearizable, Persistency(99)); err == nil {
		t.Fatal("non-canonical persistency impl must be rejected")
	}
	if _, err := Register("test-dup", Causal, Scope); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if _, err := Register("test-dup", Causal, Scope); err == nil {
		t.Fatal("duplicate name must be rejected")
	}
	if _, err := Register("<Linearizable, Synchronous>", Causal, Scope); err == nil {
		t.Fatal("canonical model names must be rejected as custom names")
	}
}

func TestRegistryEnumeration(t *testing.T) {
	t.Cleanup(RegistryCheckpoint())
	m, err := Register("test-enum", Eventual, Strict)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	models := RegisteredModels()
	if len(models) < 26 {
		t.Fatalf("RegisteredModels returned %d entries, want the canonical 25 plus customs", len(models))
	}
	for i, canon := range AllModels() {
		if models[i] != canon {
			t.Fatalf("RegisteredModels[%d] = %v, want canonical order (%v)", i, models[i], canon)
		}
	}
	found := false
	for _, got := range models {
		if got == m {
			found = true
		}
	}
	if !found {
		t.Fatalf("RegisteredModels is missing the custom model %v", m)
	}
	bindings := Bindings()
	if len(bindings) != len(models) {
		t.Fatalf("Bindings (%d) and RegisteredModels (%d) disagree", len(bindings), len(models))
	}
	for _, b := range bindings[:25] {
		if b.Custom() {
			t.Fatalf("canonical binding %q reported Custom", b.Name)
		}
	}
}

func TestUnregisteredCustomCodes(t *testing.T) {
	stray := Model{C: Consistency(99), P: Persistency(99)}
	if got := ImplOf(stray); got != Baseline {
		t.Fatalf("ImplOf(stray) = %v, want the Baseline fallback", got)
	}
	if s := Consistency(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unregistered consistency code renders %q, want the raw code visible", s)
	}
	if _, ok := BindingFor(stray); ok {
		t.Fatal("BindingFor must not invent bindings for unregistered codes")
	}
}
