package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	woha "repro"
)

// parseTenants decodes the -tenants spec: semicolon-separated tenants, each
// "name:key=value,..." with keys rate (admissions per virtual hour), burst,
// quota (fraction of cluster slots), and tier. Returns the config map plus
// the tenant names in spec order.
func parseTenants(spec string) (map[string]woha.AdmissionTenant, []string, error) {
	if spec == "" {
		return nil, nil, nil
	}
	tenants := make(map[string]woha.AdmissionTenant)
	var names []string
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, kvs, ok := strings.Cut(entry, ":")
		if !ok || name == "" {
			return nil, nil, fmt.Errorf("-tenants entry %q, want name:key=value,...", entry)
		}
		if _, dup := tenants[name]; dup {
			return nil, nil, fmt.Errorf("-tenants names tenant %q twice", name)
		}
		var t woha.AdmissionTenant
		for _, kv := range strings.Split(kvs, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, nil, fmt.Errorf("-tenants entry %q: %q, want key=value", entry, kv)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("-tenants entry %q: %q: %v", entry, kv, err)
			}
			switch k {
			case "rate":
				t.Rate = f
			case "burst":
				t.Burst = int(f)
			case "quota":
				t.Quota = f
			case "tier":
				t.Tier = int(f)
			default:
				return nil, nil, fmt.Errorf("-tenants entry %q: unknown key %q (want rate, burst, quota, or tier)", entry, k)
			}
		}
		tenants[name] = t
		names = append(names, name)
	}
	return tenants, names, nil
}

// assignTenants stamps tenant names onto the workflows round-robin, in
// submission order. A no-op when no tenants were configured.
func assignTenants(flows []*woha.Workflow, names []string) {
	if len(names) == 0 {
		return
	}
	for i, w := range flows {
		w.Tenant = names[i%len(names)]
	}
}

// outcomeLabel renders one workflow's outcome column, covering the rejected
// case the admission front door introduces.
func outcomeLabel(w woha.WorkflowResult, met string) string {
	if w.Rejected {
		s := "REJECTED (" + w.RejectReason + ")"
		if w.CounterOffer > 0 {
			s += fmt.Sprintf(", counter-offer %.0fs", w.CounterOffer.Seconds())
		}
		return s
	}
	if !w.Met {
		return fmt.Sprintf("MISS by %v", w.Tardiness.Round(time.Second))
	}
	return met
}

// printAdmissionSummary reports a front door's aggregate outcome over the
// workflows it ruled on, prefixed by indent. A no-op without a controller.
func printAdmissionSummary(out io.Writer, indent string, adm woha.AdmissionController, flows []woha.WorkflowResult) {
	if adm == nil {
		return
	}
	rejected, offered := 0, 0
	admitted, missed := 0, 0
	for _, w := range flows {
		if w.Rejected {
			rejected++
			if w.CounterOffer > 0 {
				offered++
			}
			continue
		}
		admitted++
		if !w.Met {
			missed++
		}
	}
	ratio := 0.0
	if admitted > 0 {
		ratio = float64(missed) / float64(admitted)
	}
	fmt.Fprintf(out, "%sadmission %s: %d admitted, %d rejected (%d counter-offered), miss ratio among admitted %.1f%%\n",
		indent, adm.Name(), admitted, rejected, offered, 100*ratio)
}
