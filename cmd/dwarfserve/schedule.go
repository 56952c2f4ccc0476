package main

// POST /v1/schedule: prediction-guided workload placement over the store.
// The request names a workload (benchmark × size × count tasks, optional
// per-task deadlines and energy budgets), a fleet (default: the whole
// catalogue) and a policy; the response is the evaluated schedule — per
// device timelines, makespan, energy, constraint violations — with every
// slot flagged measured or predicted. The cost provider resolves measured
// cells from the server's snapshot and predicts the rest with the §5
// forests, which train only when a plan first places a task on an
// unmeasured cell. It is built once per snapshot and shared with
// /v1/predict: a job that lands new cells publishes a new snapshot, and
// the next schedule resolves those cells as measured.

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"

	"opendwarfs/internal/sched"
	"opendwarfs/internal/suite"
)

// scheduleRequest is the POST /v1/schedule body.
type scheduleRequest struct {
	Tasks []sched.TaskSpec `json:"tasks"`
	// Devices is the fleet; empty means all 15 catalogue devices.
	Devices []string `json:"devices,omitempty"`
	// Policy defaults to "heft".
	Policy string `json:"policy,omitempty"`
	// MakespanBudgetMs / BudgetFactor tune the energy policy.
	MakespanBudgetMs float64 `json:"makespan_budget_ms,omitempty"`
	BudgetFactor     float64 `json:"budget_factor,omitempty"`
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req scheduleRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, bodyStatus(err), fmt.Sprintf("invalid schedule request: %v (valid policies: %s)",
			err, strings.Join(sched.Policies(), ", ")))
		return
	}
	if req.Policy == "" {
		req.Policy = "heft"
	}
	pol, err := sched.LookupPolicy(req.Policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	workload, err := (&sched.WorkloadSpec{Tasks: req.Tasks}).Expand(suite.New())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Quarantined devices never receive work: an explicit fleet naming one
	// is a conflict the client must resolve; the default (whole-catalogue)
	// fleet silently shrinks around them.
	s.quarMu.Lock()
	quarantined := maps.Clone(s.quarantined)
	s.quarMu.Unlock()
	for _, d := range req.Devices {
		if reason, ok := quarantined[d]; ok {
			writeError(w, http.StatusConflict,
				fmt.Sprintf("device %s is quarantined (%s); drop it from the fleet or restart the daemon", d, reason))
			return
		}
	}
	fleet, err := sched.Fleet(req.Devices)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Devices) == 0 && len(quarantined) > 0 {
		if fleet = sched.Survivors(fleet, slices.Collect(maps.Keys(quarantined))); len(fleet) == 0 {
			writeError(w, http.StatusServiceUnavailable, "every catalogue device is quarantined")
			return
		}
	}

	costs, err := s.snap.Load().costs()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Prediction needs each row's AIWC profiles, which come from stored
	// cells; a row never measured on any device is a 404, like /v1/predict.
	if missing := costs.MissingRows(workload); len(missing) > 0 {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("no stored measurement of %s on any device; sweep them into the store first",
				strings.Join(missing, ", ")))
		return
	}

	schedule, err := pol.Schedule(workload, fleet, costs, sched.Options{
		MakespanBudgetNs: req.MakespanBudgetMs * 1e6,
		BudgetFactor:     req.BudgetFactor,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"policy":          schedule.Policy,
		"tasks":           len(schedule.Slots),
		"makespan_ms":     schedule.MakespanNs / 1e6,
		"total_energy_j":  schedule.TotalEnergyJ,
		"idle_energy_j":   schedule.IdleEnergyJ,
		"deadline_misses": schedule.DeadlineMisses,
		"energy_overruns": schedule.EnergyOverruns,
		"measured":        schedule.Measured,
		"predicted":       schedule.Predicted,
		"training_cells":  costs.TrainingCells(),
		"slots":           schedule.Slots,
		"lanes":           schedule.Lanes,
	})
}
