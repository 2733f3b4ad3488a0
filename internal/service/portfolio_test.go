package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdpfloor"
)

func portfolioRequest(n int, contenders ...string) *Request {
	req := testRequest(n, 1)
	req.Method = sdpfloor.MethodPortfolio
	req.Contenders = contenders
	return req
}

// TestPortfolioSubmitValidation rejects malformed portfolio requests at
// submit time (HTTP 400 territory), not as failed jobs.
func TestPortfolioSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, nil)

	if _, err := s.Submit(portfolioRequest(3, "simplex")); err == nil || !strings.Contains(err.Error(), "not a solo method") {
		t.Fatalf("unknown contender: err %v, want not-a-solo-method", err)
	}
	if _, err := s.Submit(portfolioRequest(3, "sa", "sa")); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("duplicate contender: err %v, want listed-twice", err)
	}
	if _, err := s.Submit(portfolioRequest(3, "portfolio")); err == nil {
		t.Fatal("portfolio racing itself accepted")
	}
	req := testRequest(3, 1)
	req.Contenders = []string{"sa"}
	if _, err := s.Submit(req); err == nil || !strings.Contains(err.Error(), "contenders require") {
		t.Fatalf("contenders on solo method: err %v, want contenders-require-portfolio", err)
	}
}

// TestPortfolioKeyIncludesContenders: the contender list determines the
// race outcome, so it must be part of the content address — while requests
// without contenders keep the exact pre-portfolio key.
func TestPortfolioKeyIncludesContenders(t *testing.T) {
	a := portfolioRequest(4, "sdp", "sa")
	b := portfolioRequest(4, "sa", "sdp")
	if a.Key() == b.Key() {
		t.Fatal("contender order not part of the cache key")
	}
	c := portfolioRequest(4)
	d := portfolioRequest(4)
	if c.Key() != d.Key() {
		t.Fatal("table-selected portfolio keys not deterministic")
	}
	solo := testRequest(4, 1)
	soloAgain := testRequest(4, 1)
	if solo.Key() != soloAgain.Key() {
		t.Fatal("solo keys not deterministic")
	}
}

// TestPortfolioJobConfig checks what runJob hands the solver: the contender
// list from the request, and the full
// SolveWorkers budget for the race to split (contenders never oversubscribe
// beyond a solo job's CPU share).
func TestPortfolioJobConfig(t *testing.T) {
	var got sdpfloor.Config
	s := newTestServer(t, Config{Workers: 1, SolveWorkers: 4},
		func(ctx context.Context, nl *sdpfloor.Netlist, c sdpfloor.Config) (*sdpfloor.Floorplan, error) {
			got = c
			fp := fakeFloorplan(nl)
			fp.Winner = sdpfloor.MethodSA
			fp.Portfolio = []sdpfloor.PortfolioReport{
				{Name: "sdp", Status: sdpfloor.PortfolioCancelled, Workers: 2},
				{Name: "sa", Status: sdpfloor.PortfolioWon, Workers: 2, HPWL: 42, Feasible: true},
			}
			return fp, nil
		})

	st, err := s.Submit(portfolioRequest(4, "sdp", "sa"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)

	want := []sdpfloor.Method{sdpfloor.MethodSDP, sdpfloor.MethodSA}
	if len(got.Portfolio.Contenders) != 2 || got.Portfolio.Contenders[0] != want[0] || got.Portfolio.Contenders[1] != want[1] {
		t.Fatalf("solver saw contenders %v, want %v", got.Portfolio.Contenders, want)
	}
	if got.Global.Workers != 4 {
		t.Fatalf("solver got %d workers, want the full SolveWorkers budget 4", got.Global.Workers)
	}

	res, _, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "sa" || len(res.Portfolio) != 2 || res.Portfolio[1].Status != sdpfloor.PortfolioWon {
		t.Fatalf("result race report %+v", res)
	}
}

// TestPortfolioSpecRoundTrip: contenders survive the journal spec encoding,
// so a replayed portfolio job races the same set.
func TestPortfolioSpecRoundTrip(t *testing.T) {
	req := portfolioRequest(4, "sdp", "analytic")
	spec := specFor(req, req.Key())
	back, err := requestFromSpec(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Contenders) != 2 || back.Contenders[0] != "sdp" || back.Contenders[1] != "analytic" {
		t.Fatalf("replayed contenders %v, want [sdp analytic]", back.Contenders)
	}
	if back.Key() != req.Key() {
		t.Fatalf("replayed key %s != original %s", back.Key(), req.Key())
	}
}

// TestPortfolioHTTP submits a real portfolio race of two cheap baselines
// over the wire and checks the result reports the winner.
func TestPortfolioHTTP(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, SolveWorkers: 2}, nil) // real PlaceContext
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	nl := testNetlist(6)
	var nlJSON strings.Builder
	if err := sdpfloor.WriteNetlistJSON(&nlJSON, nl); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"netlist": %s, "method": "portfolio", "contenders": ["qp", "analytic"], "timeoutSec": 60}`, nlJSON.String())

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	decodeBody(t, resp, http.StatusAccepted, &st)

	deadline := time.Now().Add(30 * time.Second)
	for st.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s (%s)", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, http.StatusOK, &st)
		if st.State == StateFailed || st.State == StateCancelled {
			t.Fatalf("job %s: %s", st.State, st.Error)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	decodeBody(t, resp, http.StatusOK, &res)
	if res.Winner != "qp" && res.Winner != "analytic" {
		t.Fatalf("winner %q, want one of the contenders", res.Winner)
	}
	if len(res.Portfolio) != 2 || res.HPWL <= 0 || len(res.Rects) != nl.N() {
		t.Fatalf("result %+v", res)
	}

	// A bad contender list is a 400, not a failed job.
	bad := fmt.Sprintf(`{"netlist": %s, "method": "portfolio", "contenders": ["simplex"]}`, nlJSON.String())
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var envelope errorJSON
	decodeBody(t, resp, http.StatusBadRequest, &envelope)
	if envelope.Error.Code != codeBadRequest {
		t.Fatalf("error envelope %+v", envelope)
	}
}
