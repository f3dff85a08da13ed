package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ZoneReport summarises one zone's activity over a run: how busy it was,
// how much motional heat it accumulated, and how its chain occupancy ended.
type ZoneReport struct {
	Zone        int     `json:"zone"`
	Module      int     `json:"module"`
	Optical     bool    `json:"optical"`
	GateCapable bool    `json:"gateCapable"`
	BusyUS      float64 `json:"busyUS"`      // summed op time charged to the zone
	Utilization float64 `json:"utilization"` // BusyUS / makespan
	Heat        float64 `json:"heat"`        // accumulated n̄
	FinalLoad   int     `json:"finalLoad"`
	Capacity    int     `json:"capacity"`
}

// Report aggregates a run for human consumption and regression tests.
type Report struct {
	Metrics Metrics      `json:"-"`
	Zones   []ZoneReport `json:"zones"`

	// Summary numbers.
	MakespanUS   float64 `json:"makespanUS"`
	Shuttles     int     `json:"shuttles"`
	ChainSwaps   int     `json:"chainSwaps"`
	FiberGates   int     `json:"fiberGates"`
	Log10F       float64 `json:"log10Fidelity"`
	HottestZone  int     `json:"hottestZone"`
	HottestHeat  float64 `json:"hottestHeat"`
	BusiestZone  int     `json:"busiestZone"`
	MaxUtilShare float64 `json:"maxUtilization"`
}

// BuildReport computes the per-zone activity report. It requires the
// engine to have been created with EnableTrace (the per-zone busy time is
// reconstructed from the trace); heat and occupancy come from live state.
func (e *Engine) BuildReport() Report {
	m := e.Metrics()
	r := Report{
		Metrics:    m,
		MakespanUS: m.MakespanUS,
		Shuttles:   m.Shuttles,
		ChainSwaps: m.ChainSwaps,
		FiberGates: m.FiberGates,
		Log10F:     m.Fidelity.Log10(),
	}
	busy := make([]float64, len(e.zones))
	for _, op := range e.trace {
		switch op.Kind {
		case "fiber", "swapfiber":
			busy[op.Zone] += op.DurUS
			if op.ZoneB >= 0 {
				busy[op.ZoneB] += op.DurUS
			}
		case "move":
			// Transit time belongs to neither chain.
		default:
			busy[op.Zone] += op.DurUS
		}
	}
	for z, info := range e.zones {
		zr := ZoneReport{
			Zone:        z,
			Module:      info.Module,
			Optical:     info.Optical,
			GateCapable: info.GateCapable,
			BusyUS:      busy[z],
			Heat:        e.heat[z],
			FinalLoad:   len(e.chains[z]),
			Capacity:    info.Capacity,
		}
		if m.MakespanUS > 0 {
			zr.Utilization = busy[z] / m.MakespanUS
		}
		r.Zones = append(r.Zones, zr)
		if zr.Heat > r.HottestHeat {
			r.HottestHeat, r.HottestZone = zr.Heat, z
		}
		if zr.Utilization > r.MaxUtilShare {
			r.MaxUtilShare, r.BusiestZone = zr.Utilization, z
		}
	}
	return r
}

// WriteText renders the report as an aligned table.
func (r Report) WriteText(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan %.0fus  shuttles %d  chain swaps %d  fiber %d  log10F %.2f\n",
		r.MakespanUS, r.Shuttles, r.ChainSwaps, r.FiberGates, r.Log10F)
	fmt.Fprintf(&sb, "%-5s %-7s %-8s %-9s %-7s %-6s %s\n",
		"zone", "module", "kind", "busy(us)", "util", "heat", "load")
	for _, z := range r.Zones {
		kind := "storage"
		switch {
		case z.Optical:
			kind = "optical"
		case z.GateCapable:
			kind = "op"
		}
		fmt.Fprintf(&sb, "%-5d %-7d %-8s %-9.0f %-7.2f %-6.1f %d/%d\n",
			z.Zone, z.Module, kind, z.BusyUS, z.Utilization, z.Heat, z.FinalLoad, z.Capacity)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// scheduleJSON is the serialised form of a trace.
type scheduleJSON struct {
	NumQubits int  `json:"numQubits"`
	Ops       []Op `json:"ops"`
}

// WriteScheduleJSON serialises a trace (plus register width) as JSON, the
// interchange format for external visualisers.
func WriteScheduleJSON(w io.Writer, numQubits int, trace []Op) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(scheduleJSON{NumQubits: numQubits, Ops: trace})
}

// ReadScheduleJSON reads a trace previously written by WriteScheduleJSON.
func ReadScheduleJSON(r io.Reader) (numQubits int, trace []Op, err error) {
	var s scheduleJSON
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return 0, nil, fmt.Errorf("sim: decoding schedule: %w", err)
	}
	if s.NumQubits <= 0 {
		return 0, nil, fmt.Errorf("sim: schedule has invalid qubit count %d", s.NumQubits)
	}
	return s.NumQubits, s.Ops, nil
}

// TopHotZones returns the n hottest zones, hottest first — the Fig. 7
// narrative ("small trap capacities lead to increased shuttling, which
// heats the trap") made inspectable.
func (r Report) TopHotZones(n int) []ZoneReport {
	zs := append([]ZoneReport(nil), r.Zones...)
	sort.Slice(zs, func(i, j int) bool { return zs[i].Heat > zs[j].Heat })
	if n > len(zs) {
		n = len(zs)
	}
	return zs[:n]
}
