(** The concolic exploration engine.

    Implements the paper's §2.1 search: execute with concrete inputs,
    collect the path's branch constraints, negate one, solve for a new
    input, re-execute.  Alternative paths wait on a pending list of
    constraint sets — exactly the structure reused by guided replay (§3.1).

    The engine is generic over the run function, so dynamic analysis and
    bug replay share it.

    One loop drains the pending frontier with [~jobs] workers: worker 0 on
    the calling domain, the others on OCaml 5 domains (the run function
    must then be safe to call concurrently — each call must build its own
    interpreter state).  [~jobs:1], the default, spawns no domain and
    visits pendings in the exact deterministic sequential order.  An
    optional shared {!Solver.Cache} memoizes solver queries across
    pendings.

    With [~steal] (default true) each worker owns a deque and, when it
    drains, steals from its siblings, scanning them round-robin from its
    right-hand neighbour: children of a run land on the worker's own
    deque, so local work extends its own recent traces — the lineage
    affinity that keeps the per-worker incremental solver scope warm.
    [~steal:false] gives all workers one shared deque.  Both produce
    jobs-invariant result *sets* on exhausted frontiers; visit order
    differs.

    Passing [~incr] (a shared {!Solver.Incr.t}) turns on incremental
    solving: learned-core pruning, scope reuse across sibling pendings and
    the two-strategy portfolio.  Verdicts are unchanged (fuzz-enforced);
    models — and therefore which of several equivalent witnesses is found
    first — may differ from the from-scratch solver's. *)

type budget = {
  max_runs : int;
  max_time_s : float;  (** wall-clock cut-off for the whole exploration *)
}

val default_budget : budget

type strategy =
  | Dfs  (** deepest pending first: follows a forced chain (guided replay) *)
  | Bfs
      (** oldest/shallowest pending first: generational search, best for
          coverage (dynamic analysis) *)

type run_result = {
  outcome : Interp.Crash.outcome;
  trace : Path.entry list;  (** in execution order *)
  observed : Solver.Model.t;
      (** effective concrete value of every symbolic input variable the run
          touched; seeds the solver for child pendings *)
}

type stats = {
  mutable runs : int;
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable pending_peak : int;
  mutable elapsed_s : float;
  mutable timed_out : bool;
  mutable forks : int;  (** pendings pushed onto the frontier *)
  mutable core_pruned : int;
      (** pendings answered Unsat by a learned core, no solver call.  On an
          exhausted frontier [sat + unsat + unknown + core_pruned = forks]. *)
  mutable solved_incremental : int;
      (** solver calls that reused >= 1 scope frame *)
  mutable solver_calls : int;  (** calls that reached the incremental solver *)
  mutable steals : int;  (** pendings taken from another worker's deque *)
  mutable worker_runs : int array;
      (** per-worker run counts (length [jobs]; the seeding run counts
          toward worker 0); the sum always equals [runs] *)
}

(** Batch-level steal accounting, mirroring {!Solver.Incr.totals}:
    [reset_steal_total] zeroes a process-wide counter and [steal_total]
    reads the steals accumulated by every exploration since — benches use
    the pair around replays whose per-explore stats are buried inside
    {!Replay.Guided} or {!Triage.Sched}. *)
val reset_steal_total : unit -> unit

val steal_total : unit -> int

(** Explore paths until the budget is exhausted or [should_stop] returns
    true for a run.  Returns the statistics and, if stopped early, the
    model and result of the stopping run.  Every run, the first one
    included, counts against [budget.max_runs], so [runs <= max_runs].

    [jobs] (default 1, at least 1) sets the number of workers; with several
    workers the {!strategy} order becomes a priority hint and [run] must
    tolerate concurrent calls.  [on_run] and [should_stop] are always
    called with the engine's callback lock held, i.e. serialized, so they
    may keep plain mutable state.  [cache] memoizes solver queries across
    pendings (and is shared by all workers).  [incr] enables incremental
    solving (each worker opens a private session); [steal] (default true)
    gives each worker its own deque to push to and steal from, false makes
    the workers share one.  At [jobs:1] both mean a single deque.

    [telemetry] (default disabled) wraps the exploration in an
    [engine.explore] span with one [engine.worker] child span per worker,
    times runs ([engine.run_s]) and the solver split, samples the frontier
    depth over time ([engine.frontier]) and accumulates the
    [engine.runs]/[sat]/[unsat]/[unknown]/[forks] counters. *)
val explore :
  vars:Solver.Symvars.t ->
  ?budget:budget ->
  ?strategy:strategy ->
  ?jobs:int ->
  ?cache:Solver.Cache.t ->
  ?incr:Solver.Incr.t ->
  ?steal:bool ->
  ?telemetry:Telemetry.t ->
  run:(Solver.Model.t -> run_result) ->
  ?should_stop:(Solver.Model.t -> run_result -> bool) ->
  ?on_run:(Solver.Model.t -> run_result -> unit) ->
  unit ->
  stats * (Solver.Model.t * run_result) option

(** A {!stats} in the unified counter view (scope ["engine"]); the record
    stays for the bench tables. *)
val counters : stats -> Telemetry.Counters.snapshot
