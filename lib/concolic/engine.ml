(** The concolic exploration engine.

    Implements the paper's §2.1 search: execute with concrete inputs,
    collect the path's branch constraints, negate one, solve for a new
    input, re-execute.  Alternative paths wait on a *pending list* of
    constraint sets (exactly the structure reused by guided replay in §3.1);
    selection is depth-first, the heuristic the paper says it uses.

    Pending sets share their parent run's trace array and materialise the
    constraint list only when popped, so a run with thousands of symbolic
    branch executions costs O(1) memory per pending alternative.

    The engine is generic over the actual run function, so dynamic analysis
    and bug replay share it.

    One loop drains the frontier with [~jobs] workers (OCaml 5 domains):
    each pops a pending, solves it (optionally through a shared memoizing
    {!Solver.Cache}), re-executes in an isolated interpreter state and
    pushes the children back.  With several workers the LIFO/FIFO
    disciplines of {!Dfs}/{!Bfs} become *priority hints* — each pop still
    takes the deepest/oldest pending, but several pendings are in flight
    at once, so the global visit order is not the single-worker one.
    [~jobs:1] (the default) is one worker on the calling domain: the
    deterministic seed order. *)

type budget = {
  max_runs : int;
  max_time_s : float;  (** wall-clock cut-off for the whole exploration *)
}

type strategy =
  | Dfs  (** deepest pending first: follows a forced chain (guided replay) *)
  | Bfs
      (** oldest/shallowest pending first: generational search, best for
          coverage (dynamic analysis) *)

let default_budget = { max_runs = 500; max_time_s = 10.0 }

type run_result = {
  outcome : Interp.Crash.outcome;
  trace : Path.entry list;  (** in execution order *)
  observed : Solver.Model.t;
      (** effective concrete value of every symbolic input variable the run
          touched; used to seed the solver for child pendings so that only
          the negated constraint's variables need new values *)
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
      (** pendings answered Unsat by a learned core, no solver call *)
  mutable solved_incremental : int;
      (** solver calls that reused >= 1 scope frame *)
  mutable solver_calls : int;  (** calls that reached the incremental solver *)
  mutable steals : int;  (** pendings taken from another worker's deque *)
  mutable worker_runs : int array;
      (** per-worker run counts, length [jobs]; the seeding run counts
          toward worker 0.  Invariant: the sum equals [runs]. *)
}

(* Batch-level steal accounting, mirroring [Solver.Incr.totals]: per-explore
   stats are buried inside the [Guided]/[Triage.Sched] layers, so benches
   total steals across every exploration between a reset and a read. *)
let steals_total = Atomic.make 0
let reset_steal_total () = Atomic.set steals_total 0
let steal_total () = Atomic.get steals_total

(* A pending constraint set: the prefix [trace.(0 .. upto-1)] with
   [trace.(upto)] negated, plus the [lineage] of negated constraints
   inherited from ancestor pendings.  The lineage is what makes exclusions
   accumulate: when a re-executed run re-records a fresh constraint at a
   previously-negated position (a re-pinned concretisation, say), the
   ancestor's negation would otherwise be forgotten and the search would
   cycle between two values.  [upto + 1] is the bound from which the next
   run may generate children (inherited constraints are never re-negated). *)
type pending = {
  trace : Path.entry array;
  upto : int;
  hint : Solver.Model.t;
  lineage : Solver.Expr.t list;
}

let negated_of (p : pending) = Solver.Expr.negate p.trace.(p.upto).Path.cons

let constraints_of (p : pending) : Solver.Expr.t list =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (p.trace.(i).Path.cons :: acc)
  in
  p.lineage @ build (p.upto - 1) [ negated_of p ]

let monotonic () = Unix.gettimeofday ()

(* Solve a pending's constraint set, escalating once on Unknown: an Unknown
   abandons this pending subtree for good — fatal when it carries a
   log-forced direction.  Routed through the memoizing cache when one is
   supplied (Unknowns are not cached, so the escalated call always reaches
   the real solver).  [telemetry] records the hit/miss/solve time split
   (through the cache when present, as [solver.solve_s] otherwise). *)
let solve_pending ?cache ?session ~telemetry ~vars ~hint cs =
  let solve ?budget () =
    match session with
    (* incremental path: learned-core pruning, scope re-sync, cache probe
       on the slice, portfolio search — all inside {!Solver.Incr.solve}.
       Same slice soundness argument as below. *)
    | Some s -> Solver.Incr.solve s ?budget ?cache ~hint cs
    | None -> (
        match cache with
        (* [slice] is sound here: a pending's hint satisfies every constraint
           outside the focus component, and the exploration loop merges the
           returned model over the hint (union_prefer_left) before running *)
        | Some c ->
            Solver.Cache.solve c ?budget ~telemetry ~vars ~hint ~slice:true cs
        | None ->
            Telemetry.Metrics.time telemetry "solver.solve_s" (fun () ->
                Solver.Solve.solve ?budget ~vars ~hint cs))
  in
  match solve () with
  | Solver.Solve.Unknown ->
      solve ~budget:{ Solver.Solve.default_budget with max_nodes = 3_000_000 } ()
  | r -> r

(* ------------------------------------------------------------------ *)
(* The exploration loop: [jobs] workers drain [ndeques] deques.

   With [~steal] each worker owns a deque ([ndeques = jobs]) and pushes its
   runs' children there, so a worker's local work tends to extend its own
   recent traces — exactly the lineage affinity that keeps its incremental
   solver scope ({!Solver.Incr}) warm.  For [Dfs] the owner pops
   newest-first (LIFO) and thieves steal oldest-first, taking the
   shallowest — largest — subtrees and touching the victim's cache-hot end
   never; [Bfs] is the mirror image.  A worker whose own deque is empty
   scans the others round-robin, starting at its right-hand neighbour.
   Without [~steal] there is one deque ([ndeques = 1]) that every worker
   pushes to and pops from.  Worker 0 runs on the calling domain, so
   [~jobs:1] spawns nothing and pops its single deque in the seed order:
   LIFO for [Dfs], FIFO for [Bfs].

   Synchronization: each deque has its own small mutex; everything global is
   an [Atomic] — [total_pending] (counted *before* a push becomes visible
   and decremented *after* a successful pop, so the emptiness test never
   under-counts), [active] (incremented before a worker tries to pop,
   decremented when its pending is fully processed — children pushed), and
   a set-once [found]/[failed].  Termination: [total_pending = 0 && active
   = 0].  Idle workers park on a condvar; pushers wake them only when the
   sleeper count is non-zero, so the happy path takes no global lock.
   [on_run]/[should_stop] stay serialized under a callback mutex (the
   documented engine contract).  Every run, the seeding one included, is
   reserved with a CAS loop, so [max_runs] is an exact bound. *)

module Deque = struct
  type 'a t = {
    mu : Mutex.t;
    mutable buf : 'a option array;
    mutable head : int;  (* index of the first element *)
    mutable len : int;
  }

  let create () =
    { mu = Mutex.create (); buf = Array.make 64 None; head = 0; len = 0 }

  let grow d =
    let cap = Array.length d.buf in
    let nbuf = Array.make (cap * 2) None in
    for i = 0 to d.len - 1 do
      nbuf.(i) <- d.buf.((d.head + i) mod cap)
    done;
    d.buf <- nbuf;
    d.head <- 0

  let push_back d x =
    Mutex.protect d.mu (fun () ->
        if d.len = Array.length d.buf then grow d;
        d.buf.((d.head + d.len) mod Array.length d.buf) <- Some x;
        d.len <- d.len + 1)

  let pop_back d =
    Mutex.protect d.mu (fun () ->
        if d.len = 0 then None
        else begin
          let i = (d.head + d.len - 1) mod Array.length d.buf in
          let x = d.buf.(i) in
          d.buf.(i) <- None;
          d.len <- d.len - 1;
          x
        end)

  let pop_front d =
    Mutex.protect d.mu (fun () ->
        if d.len = 0 then None
        else begin
          let x = d.buf.(d.head) in
          d.buf.(d.head) <- None;
          d.head <- (d.head + 1) mod Array.length d.buf;
          d.len <- d.len - 1;
          x
        end)
end

let explore_loop ~vars ~budget ~strategy ~jobs ~steal ?cache ?incr:isolver
    ~telemetry ~(span : Telemetry.Span.t) ~run ~should_stop ~on_run (stats : stats) :
    (Solver.Model.t * run_result) option =
  let started = monotonic () in
  let deadline = started +. budget.max_time_s in
  let forks_c = Telemetry.Metrics.counter telemetry "engine.forks" in
  let ndeques = if steal then jobs else 1 in
  let deques = Array.init ndeques (fun _ -> Deque.create ()) in
  let own_pop d =
    match strategy with Dfs -> Deque.pop_back d | Bfs -> Deque.pop_front d
  in
  let thief_pop d =
    match strategy with Dfs -> Deque.pop_front d | Bfs -> Deque.pop_back d
  in
  let total_pending = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let rec bump_peak n =
    let cur = Atomic.get peak in
    if n > cur && not (Atomic.compare_and_set peak cur n) then bump_peak n
  in
  let runs = Atomic.make 0 in
  let rec reserve_run () =
    let r = Atomic.get runs in
    if r >= budget.max_runs then false
    else if Atomic.compare_and_set runs r (r + 1) then true
    else reserve_run ()
  in
  let sat_n = Atomic.make 0 in
  let unsat_n = Atomic.make 0 in
  let unknown_n = Atomic.make 0 in
  let forks_n = Atomic.make 0 in
  let steals_n = Atomic.make 0 in
  let wruns = Array.init jobs (fun _ -> Atomic.make 0) in
  let found : (Solver.Model.t * run_result) option Atomic.t =
    Atomic.make None
  in
  let failed : exn option Atomic.t = Atomic.make None in
  let hit_deadline = Atomic.make false in
  let active = Atomic.make 0 in
  let gm = Mutex.create () in
  let cv = Condition.create () in
  let sleepers = Atomic.make 0 in
  let cb_mu = Mutex.create () in
  let fail e = ignore (Atomic.compare_and_set failed None (Some e)) in
  let wake_all () = Mutex.protect gm (fun () -> Condition.broadcast cv) in
  let push_local k p =
    (* count before the push becomes stealable: the termination test may
       see a phantom pending for a moment, never a missing one *)
    let n = Atomic.fetch_and_add total_pending 1 + 1 in
    bump_peak n;
    Deque.push_back deques.(k mod ndeques) p;
    if Atomic.get sleepers > 0 then wake_all ()
  in
  (* [flipped] is the (position, negated constraint) this run was created to
     satisfy.  If the run records a *different* constraint at that position
     (a concretisation re-pinned to a new value), that position is fair game
     for another flip — with the lineage remembering the exclusions.  A
     branch entry re-records exactly the negated constraint, so branches are
     never flip-flopped.  Children are pushed shallow-to-deep, so a LIFO pop
     takes the deepest first. *)
  let push_children k model (result : run_result) bound flipped lineage =
    let trace = Array.of_list result.trace in
    let hint = Solver.Model.union_prefer_left model result.observed in
    let pushed = ref 0 in
    Array.iteri
      (fun i (e : Path.entry) ->
        let reflip =
          match flipped with Some (j, c) -> i = j && e.cons <> c | None -> false
        in
        if e.negatable && (i >= bound || reflip) then begin
          incr pushed;
          (* the exclusion lineage matters only along a re-flip chain (the
             re-pinned entry would otherwise cycle through old values); an
             ordinary child's prefix already implies every past decision,
             and a divergent run must not inherit constraints about a path
             it no longer follows *)
          push_local k
            { trace; upto = i; hint; lineage = (if reflip then lineage else []) }
        end)
      trace;
    ignore (Atomic.fetch_and_add forks_n !pushed);
    Telemetry.Metrics.incr ~by:!pushed forks_c;
    Telemetry.Metrics.sample telemetry "engine.frontier"
      (float_of_int (Atomic.get total_pending))
  in
  let do_run k model bound flipped lineage =
    match run model with
    | exception e -> fail e
    | result -> (
        (* serialized callbacks: the documented engine contract *)
        match
          Mutex.protect cb_mu (fun () ->
              on_run model result;
              should_stop model result)
        with
        | exception e -> fail e
        | true ->
            ignore (Atomic.compare_and_set found None (Some (model, result)));
            wake_all ()
        | false -> push_children k model result bound flipped lineage)
  in
  let process k session (p : pending) =
    let hint id = Solver.Model.find_opt id p.hint in
    match solve_pending ?cache ?session ~telemetry ~vars ~hint (constraints_of p) with
    | exception e -> fail e
    | Solver.Solve.Sat model ->
        Atomic.incr sat_n;
        if Atomic.get found = None && monotonic () <= deadline && reserve_run ()
        then begin
          Atomic.incr wruns.(k);
          (* keep the parent's values for variables the solver left free *)
          let model = Solver.Model.union_prefer_left model p.hint in
          do_run k model (p.upto + 1)
            (Some (p.upto, negated_of p))
            (negated_of p :: p.lineage)
        end
    | Solver.Solve.Unsat -> Atomic.incr unsat_n
    | Solver.Solve.Unknown -> Atomic.incr unknown_n
  in
  let stop_now () =
    Atomic.get found <> None
    || Atomic.get failed <> None
    || Atomic.get runs >= budget.max_runs
    ||
    if monotonic () > deadline then begin
      Atomic.set hit_deadline true;
      true
    end
    else false
  in
  let try_get k =
    match own_pop deques.(k mod ndeques) with
    | Some p -> Some p
    | None ->
        (* round-robin victim scan starting at the right-hand neighbour *)
        let rec scan i =
          if i >= ndeques then None
          else
            match thief_pop deques.((k + i) mod ndeques) with
            | Some p ->
                Atomic.incr steals_n;
                Some p
            | None -> scan (i + 1)
        in
        scan 1
  in
  let worker k () =
    (* span nesting is per-domain, so the explore span is linked explicitly *)
    Telemetry.Span.with_ telemetry ~parent:span ~name:"engine.worker"
      ~attrs:[ ("worker", Telemetry.Event.Int k) ]
      (fun wsp ->
        let session = Option.map (fun i -> Solver.Incr.session i ~vars) isolver in
        let pops = ref 0 in
        let rec loop () =
          if stop_now () then ()
          else begin
            Atomic.incr active;
            match try_get k with
            | Some p ->
                Atomic.decr total_pending;
                incr pops;
                process k session p;
                Atomic.decr active;
                (* sleepers must recheck: children were pushed (they have
                   work) or none were (termination may have arrived) *)
                if Atomic.get sleepers > 0 || Atomic.get total_pending = 0 then
                  wake_all ();
                loop ()
            | None ->
                Atomic.decr active;
                if Atomic.get total_pending = 0 && Atomic.get active = 0 then
                  (* global frontier drained, nobody can repopulate it *)
                  wake_all ()
                else begin
                  Mutex.lock gm;
                  Atomic.incr sleepers;
                  (* recheck under the lock: a pusher that saw sleepers = 0
                     must have completed its push before we got here, and
                     the total_pending read below observes it *)
                  if
                    Atomic.get total_pending = 0
                    && Atomic.get active > 0
                    && Atomic.get found = None
                    && Atomic.get failed = None
                  then Condition.wait cv gm;
                  Atomic.decr sleepers;
                  Mutex.unlock gm;
                  loop ()
                end
          end
        in
        loop ();
        wake_all ();
        Telemetry.Span.addi wsp "pendings" !pops)
  in
  (* the seeding run (empty model: concrete inputs come from the scenario)
     executes on the caller; its children land in deque 0 and are
     stealable once the workers start *)
  if reserve_run () then begin
    Atomic.incr wruns.(0);
    do_run 0 Solver.Model.empty 0 None []
  end;
  let domains = Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  Array.iter Domain.join domains;
  (match Atomic.get failed with Some e -> raise e | None -> ());
  stats.runs <- stats.runs + Atomic.get runs;
  stats.sat <- stats.sat + Atomic.get sat_n;
  stats.unsat <- stats.unsat + Atomic.get unsat_n;
  stats.unknown <- stats.unknown + Atomic.get unknown_n;
  stats.forks <- stats.forks + Atomic.get forks_n;
  stats.steals <- stats.steals + Atomic.get steals_n;
  stats.pending_peak <- max stats.pending_peak (Atomic.get peak);
  stats.worker_runs <- Array.map Atomic.get wruns;
  if Atomic.get hit_deadline then stats.timed_out <- true;
  Atomic.get found

(* ------------------------------------------------------------------ *)

(** Explore paths until the budget is exhausted or [should_stop] returns
    true for a run.  Returns the accumulated statistics and, if stopped
    early, the model and result of the stopping run.

    [telemetry] (default disabled) wraps the exploration in an
    [engine.explore] span (one [engine.worker] child span per worker),
    times every run into the [engine.run_s] histogram,
    samples the frontier depth after each run ([engine.frontier]) and
    accumulates the [engine.runs]/[sat]/[unsat]/[unknown]/[forks]
    counters plus the solver-time split (see {!Solver.Cache.solve}). *)
let explore ~(vars : Solver.Symvars.t) ?(budget = default_budget)
    ?(strategy = Dfs) ?(jobs = 1) ?cache ?incr ?(steal = true)
    ?(telemetry = Telemetry.disabled)
    ~(run : Solver.Model.t -> run_result)
    ?(should_stop = fun _ _ -> false)
    ?(on_run = fun (_ : Solver.Model.t) (_ : run_result) -> ()) () :
    stats * (Solver.Model.t * run_result) option =
  let jobs = max 1 jobs in
  let stats =
    { runs = 0; sat = 0; unsat = 0; unknown = 0; pending_peak = 0;
      elapsed_s = 0.0; timed_out = false; forks = 0; core_pruned = 0;
      solved_incremental = 0; solver_calls = 0; steals = 0;
      worker_runs = [||] }
  in
  Telemetry.Span.with_ telemetry ~name:"engine.explore"
    ~attrs:
      [
        ("strategy", Telemetry.Event.Str (match strategy with Dfs -> "dfs" | Bfs -> "bfs"));
        ("jobs", Telemetry.Event.Int jobs);
        ("max_runs", Telemetry.Event.Int budget.max_runs);
      ]
    (fun sp ->
      let run =
        if Telemetry.enabled telemetry then fun model ->
          Telemetry.Metrics.time telemetry "engine.run_s" (fun () -> run model)
        else run
      in
      (* delta of the incremental layer's counters attributable to this
         exploration (the [Incr.t] may be shared across sequential explores
         of a triage ladder, but never across concurrent ones) *)
      let incr_before = Option.map Solver.Incr.snapshot incr in
      let started = monotonic () in
      let found =
        explore_loop ~vars ~budget ~strategy ~jobs ~steal ?cache ?incr
          ~telemetry ~span:sp ~run ~should_stop ~on_run stats
      in
      (match (incr, incr_before) with
      | Some i, Some b ->
          let a = Solver.Incr.snapshot i in
          stats.core_pruned <- a.Solver.Incr.core_pruned - b.Solver.Incr.core_pruned;
          stats.solved_incremental <-
            a.Solver.Incr.incremental - b.Solver.Incr.incremental;
          stats.solver_calls <- a.Solver.Incr.solver_calls - b.Solver.Incr.solver_calls
      | _ -> ());
      if stats.runs >= budget.max_runs && found = None then
        stats.timed_out <- true;
      stats.elapsed_s <- monotonic () -. started;
      if stats.steals > 0 then
        ignore (Atomic.fetch_and_add steals_total stats.steals);
      Telemetry.Metrics.incr_named ~by:stats.runs telemetry "engine.runs";
      Telemetry.Metrics.incr_named ~by:stats.sat telemetry "engine.sat";
      Telemetry.Metrics.incr_named ~by:stats.unsat telemetry "engine.unsat";
      Telemetry.Metrics.incr_named ~by:stats.unknown telemetry "engine.unknown";
      Telemetry.Span.addi sp "runs" stats.runs;
      Telemetry.Span.addi sp "pending_peak" stats.pending_peak;
      Telemetry.Span.addf sp "elapsed_s" stats.elapsed_s;
      (stats, found))

(** An {!Engine.stats} in the unified counter view (scope ["engine"]).
    The record stays for the bench tables. *)
let counters (s : stats) : Telemetry.Counters.snapshot =
  Telemetry.Counters.make ~scope:"engine"
    ~gauges:
      [ ("elapsed_s", s.elapsed_s);
        ("timed_out", if s.timed_out then 1.0 else 0.0) ]
    [
      ("runs", s.runs); ("sat", s.sat); ("unsat", s.unsat);
      ("unknown", s.unknown); ("pending_peak", s.pending_peak);
      ("forks", s.forks); ("core_pruned", s.core_pruned);
      ("solved_incremental", s.solved_incremental);
      ("solver_calls", s.solver_calls); ("steals", s.steals);
    ]
