package experiments

import (
	"fmt"
	"strings"
	"time"

	"sov/internal/models"
	"sov/internal/sensorsync"
)

// SeriesCSV emits the sweep figures' data series in CSV form for external
// plotting: Fig. 3a (latency budget vs distance), Fig. 3b (driving time vs
// PAD), and Fig. 11a (depth error vs sync offset, analytic series).
func SeriesCSV() string {
	var b strings.Builder

	lm := models.DefaultLatencyModel()
	b.WriteString("figure,x,y\n")
	for _, p := range lm.RequirementCurve(4, 10, 25) {
		fmt.Fprintf(&b, "fig3a_budget_ms,%.3f,%.3f\n", p.Distance, p.Budget.Seconds()*1000)
	}

	for pad := 0.15; pad <= 0.3501; pad += 0.01 {
		fmt.Fprintf(&b, "fig3b_reduced_h,%.3f,%.4f\n", pad, models.ReducedDrivingTimeHours(pad))
	}

	for ms := 0; ms <= 150; ms += 10 {
		e := sensorsync.AnalyticDepthError(time.Duration(ms)*time.Millisecond, 5, 1.2, 25)
		fmt.Fprintf(&b, "fig11a_depth_err_m,%d,%.4f\n", ms, e)
	}
	return b.String()
}
