// Package ftl is analyzer testdata: sim.Engine.Go inside a device
// hot-path package needs an audited justification.
package ftl

import "durassd/internal/sim"

func perRequest(eng *sim.Engine) {
	eng.Go("per-request", func(p *sim.Proc) {}) // want `sim\.Engine\.Go in device hot-path package`
}

func viaDomainEngine(d *sim.Domain) {
	d.Engine().Go("nested", func(q *sim.Proc) {}) // want `sim\.Engine\.Go in device hot-path package`
}

func allowedSingleton(eng *sim.Engine) {
	eng.Go("bg-loop", func(p *sim.Proc) {}) //simlint:allow procbudget long-lived singleton started once at construction
}

func callbacksAreTheFastPath(eng *sim.Engine) {
	eng.Schedule(0, func() {})
}

type notSim struct{}

func (notSim) Go(string, func()) {}

func unrelatedGoMethod() {
	var n notSim
	n.Go("x", func() {})
}

func perRequestViaDomain(d *sim.Domain) {
	d.Go("per-request", func(p *sim.Proc) {}) // want `sim\.Domain\.Go in device hot-path package`
}

func allowedDomainSingleton(d *sim.Domain) {
	d.Go("bg-loop", func(p *sim.Proc) {}) //simlint:allow procbudget long-lived singleton started once at construction
}

func perRequestSpawn(eng *sim.Engine, d *sim.Domain) {
	eng.Spawn("per-request", func(p *sim.Proc) {}) // want `sim\.Engine\.Spawn in device hot-path package`
	d.Spawn("per-request", func(p *sim.Proc) {})   // want `sim\.Domain\.Spawn in device hot-path package`
}
