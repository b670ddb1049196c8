package exec

// FleetEvent kinds: each narrates one membership transition.
const (
	FleetJoin    = "join"    // a member was admitted (fresh id)
	FleetDrain   = "drain"   // Drain marked a member; in-flight work continues
	FleetDrained = "drained" // the drain finished; connection closed
	FleetLeave   = "leave"   // Leave removed a member immediately
	FleetDead    = "dead"    // connection failure retired a member
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

// SetFleetHook installs fn to observe every fleet transition (nil
// uninstalls). The hook runs on whichever goroutine changed membership —
// dispatchers, the listener, a Drain or Leave caller — and must be cheap and
// non-blocking.
func (r *Remote) SetFleetHook(fn func(FleetEvent)) {
	if fn == nil {
		r.fleetHook.Store(nil)
		return
	}
	r.fleetHook.Store(&fn)
}
