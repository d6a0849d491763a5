package main

import (
	"context"
	"fmt"
	"io"

	"shadowtlb/internal/exp"
	"shadowtlb/internal/serve"
	"shadowtlb/internal/serve/client"
)

// runRemote offloads the experiment run to an mtlbd daemon and reprints
// its rendered tables with exactly the writes the local path uses, so
// remote output is byte-identical to a local run of the same
// experiments.
func runRemote(base, name string, descs []exp.Descriptor, s exp.Scale, csv, jsonOut, pstats bool, stdout, stderr io.Writer) int {
	ids := make([]string, len(descs))
	for i, d := range descs {
		ids[i] = d.ID
	}
	st, err := client.New(base, nil).Run(context.Background(), serve.JobSpec{Experiments: ids, Scale: s.String()}, nil)
	if err != nil {
		fmt.Fprintf(stderr, "mtlbexp: %v\n", err)
		return 1
	}
	if st.State != serve.StateDone {
		fmt.Fprintf(stderr, "mtlbexp: remote job %s %s: %s\n", st.ID, st.State, st.Error)
		return 1
	}
	res := st.Result

	if !jsonOut {
		for _, out := range res.Experiments {
			if name == "all" {
				fmt.Fprintf(stdout, "==== %s ====\n", out.ID)
			}
			for _, t := range out.Tables {
				if csv {
					fmt.Fprint(stdout, t.CSV)
				} else {
					fmt.Fprintln(stdout, t.Text)
				}
			}
		}
	} else {
		if res.Manifest == nil {
			fmt.Fprintf(stderr, "mtlbexp: remote job %s returned no manifest\n", st.ID)
			return 1
		}
		if err := res.Manifest.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "mtlbexp: %v\n", err)
			return 1
		}
	}

	if pstats {
		fmt.Fprintf(stderr, "mtlbexp: remote job %s: %d cells, %d served from the daemon cache\n",
			st.ID, st.Progress.CellsDone, st.Progress.CacheHits)
	}
	return 0
}
