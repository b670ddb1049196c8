package exec

// FleetEvent kinds: each narrates one membership transition.
const (
	FleetJoin = "join" // a member was admitted (fresh id)
	FleetDead = "dead" // connection failure retired a member
)

// FleetEvent is one membership transition, delivered to the hook installed
// with SetFleetHook. Workers/Slots are the alive totals *after* the
// transition — the Chrome trace renders them as the fleet-size counter next
// to the event instant.
type FleetEvent struct {
	Kind   string // one of the Fleet* constants
	Worker string // member id
	Reason string // human-readable cause ("connection lost: ...")

	Workers int // alive members after the transition
	Slots   int // alive slot total after the transition
}

// SetFleetHook installs fn to observe each join and death (nil uninstalls);
// Close retires the fleet without an event. The hook runs on whichever
// goroutine changed membership — a SpawnWorker caller, the listener, a
// connection's reader or a dispatcher that saw it fail — and must be cheap
// and non-blocking.
func (r *Remote) SetFleetHook(fn func(FleetEvent)) {
	if fn == nil {
		r.fleetHook.Store(nil)
		return
	}
	r.fleetHook.Store(&fn)
}
