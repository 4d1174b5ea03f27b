package omnireduce

import (
	"context"

	"omnireduce/internal/core"
)

// Multi-tenant collective service. One aggregator fleet can serve many
// jobs from many tenants concurrently: each job runs in its own
// tensor-ID namespace (derived deterministically from the tenant and job
// names, so SPMD workers agree without coordination), admission control
// enforces per-tenant quotas with typed errors, and a per-tenant
// deficit-round-robin scheduler keeps an aggressive tenant from starving
// quiet ones on shared merge shards. The single-job API above is
// untouched — it is the implicit "default" tenant's "default" job.

// TenantQuota limits and weights one tenant on an aggregator. Zero
// fields mean unlimited (and weight 1).
type TenantQuota struct {
	// Weight is the tenant's deficit-round-robin share of aggregator
	// merge bandwidth relative to other tenants (default 1).
	Weight int
	// MaxJobs caps the tenant's concurrently open jobs; exceeding it
	// fails OpenJob with ErrTenantQuota.
	MaxJobs int
	// MaxInFlightOps caps the tenant's concurrently running collectives
	// across all its jobs; exceeding it fails the collective with
	// ErrTenantQuota.
	MaxInFlightOps int
}

// Typed admission errors, for errors.Is on OpenJob and collective
// failures.
var (
	// ErrTenantQuota reports a per-tenant limit (MaxJobs or
	// MaxInFlightOps) was exceeded on an aggregator.
	ErrTenantQuota = core.ErrTenantQuota
	// ErrAggregatorDraining reports an aggregator is draining for a
	// rolling restart and admits nothing new; retry against a
	// replacement.
	ErrAggregatorDraining = core.ErrAggregatorDraining
	// ErrTidCollision reports two distinct jobs collided on one tensor-ID
	// namespace — including the legacy hazard of two independent
	// single-job clusters sharing an aggregator.
	ErrTidCollision = core.ErrTidCollision
	// ErrAdmissionRejected is the generic admission refusal.
	ErrAdmissionRejected = core.ErrAdmissionRejected
)

// Job is an open (tenant, job) session on a worker connection. Its
// collectives are protocol-identical to the single-job API's but carry
// the job's own tensor-ID namespace, so any number of jobs can share one
// aggregator fleet without interference. Like workers, jobs are SPMD:
// every member opens the same job and issues the same operations in the
// same order.
type Job struct{ j *core.Job }

// OpenJob registers a (tenant, job) session with every aggregator and
// returns its handle. Quota violations, namespace collisions, and
// draining aggregators surface here as typed errors. The worker's own
// rank and worker count carry over as the job's.
func (w *Worker) OpenJob(tenantName, jobName string) (*Job, error) {
	j, err := w.w.OpenJob(tenantName, jobName)
	if err != nil {
		return nil, err
	}
	return &Job{j: j}, nil
}

// OpenJobAs is OpenJob for a job shaped differently from the fabric:
// this connection acts as job-relative worker wid of workers total.
func (w *Worker) OpenJobAs(tenantName, jobName string, wid, workers int) (*Job, error) {
	j, err := w.w.OpenJobAs(tenantName, jobName, wid, workers)
	if err != nil {
		return nil, err
	}
	return &Job{j: j}, nil
}

// Tenant returns the session's tenant name.
func (j *Job) Tenant() string { return j.j.Key().Tenant }

// Name returns the session's job name.
func (j *Job) Name() string { return j.j.Key().Job }

// Namespace returns the job's tensor-ID namespace (useful for filtering
// traces with cmd/tracetool -ns).
func (j *Job) Namespace() uint32 { return j.j.Namespace() }

// AllReduce sums data element-wise across the job's workers in place.
func (j *Job) AllReduce(data []float32) error { return j.j.AllReduce(data) }

// AllReduceAsync starts an AllReduce on the job and returns a handle;
// see Worker.AllReduceAsync for the overlap contract.
func (j *Job) AllReduceAsync(data []float32) (*Pending, error) {
	p, err := j.j.AllReduceAsync(data)
	if err != nil {
		return nil, err
	}
	return &Pending{p: p}, nil
}

// AllReduceSparse sums COO sparse tensors across the job's workers; see
// Worker.AllReduceSparse.
func (j *Job) AllReduceSparse(in *SparseTensor) (*SparseTensor, error) {
	out, err := j.j.AllReduceSparse(in.coo())
	if err != nil {
		return nil, err
	}
	return &SparseTensor{Dim: out.Dim, Keys: out.Keys, Values: out.Values}, nil
}

// Close ends the session on every aggregator. In-flight collectives are
// unaffected; new ones fail.
func (j *Job) Close() error { return j.j.Close() }

// Drain gracefully quiesces the aggregator: new jobs and collectives are
// refused with ErrAggregatorDraining while in-flight rounds run to
// completion. It returns once the aggregator is quiescent or with ctx's
// error. Call before Close for a rolling restart that loses no work.
func (a *Aggregator) Drain(ctx context.Context) error { return a.agg.Drain(ctx) }
