(** Dynamic analysis: time-budgeted concolic execution that labels branches
    (§2.1).

    Marks argv and stream data symbolic, explores paths with {!Engine}
    (generational/BFS search), and labels every executed branch [Symbolic]
    or [Concrete] with the paper's sticky rule.  Branches never reached
    within the budget stay [Unvisited] — the source of the dynamic method's
    under-instrumentation. *)

type result = {
  labels : Minic.Label.map;
  vars : Solver.Symvars.t;
  runs : int;
  visited : int;  (** branch locations executed at least once *)
  coverage : float;  (** visited / total branch locations *)
  elapsed_s : float;
}

(** Build the run function for a scenario (exposed for tests and custom
    exploration loops): fresh world per run, symbolic argv and stream
    bytes, symbolic syscall results. *)
val make_run :
  ?max_steps:int ->
  Scenario.t ->
  vars:Solver.Symvars.t ->
  on_branch_observed:(int -> bool -> unit) ->
  Solver.Model.t ->
  Engine.run_result

(** The sticky labelling rule (§2.1) as an [on_branch_observed] callback
    for {!make_run}, updating [labels] in place.  At [jobs] > 1 updates are
    serialized through a mutex, so concurrent runs cannot overwrite a
    [Symbolic] label with [Concrete]; the rule commutes, so the final map
    does not depend on worker scheduling. *)
val label_observer : jobs:int -> Minic.Label.map -> int -> bool -> unit

(** Run the analysis.  The budget plays the role of the paper's
    one-hour/two-hour symbolic-execution cut-offs (LC vs HC).  [jobs] > 1
    explores with a parallel worker pool (the sticky labelling rule
    commutes, so the label map does not depend on worker scheduling);
    [cache] memoizes solver queries across pendings; [incremental] (default
    true) routes pendings through a private {!Solver.Incr.t} (scope reuse,
    learned-core pruning, strategy portfolio); [steal] (default true)
    gives each worker its own deque, false shares one (see
    {!Engine.explore}); [telemetry] wraps the exploration in an
    [analyze.dynamic] span (runs/visited/coverage end attributes) over the
    {!Engine.explore} instrumentation. *)
val analyze :
  ?budget:Engine.budget ->
  ?max_steps:int ->
  ?jobs:int ->
  ?cache:Solver.Cache.t ->
  ?incremental:bool ->
  ?steal:bool ->
  ?telemetry:Telemetry.t ->
  Scenario.t ->
  result

(** (symbolic, concrete, unvisited) label counts. *)
val count_labels : result -> int * int * int
