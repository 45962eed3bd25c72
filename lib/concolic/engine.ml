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

    With [~jobs] > 1 the pending frontier is drained by a pool of OCaml 5
    domains: workers pop a pending, solve (optionally through a shared
    memoizing {!Solver.Cache}), re-execute in an isolated interpreter state
    and push children back.  The LIFO/FIFO disciplines of {!Dfs}/{!Bfs}
    become *priority hints* — each pop still takes the deepest/oldest
    pending, but several pendings are in flight at once, so the global
    visit order is not the sequential one.  [~jobs:1] (the default) runs
    the exact deterministic sequential loop. *)

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
           outside the focus component, and both exploration loops merge the
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
(* Sequential exploration: the deterministic [~jobs:1] path. *)

let explore_seq ~vars ~budget ~strategy ?cache ?session ~telemetry ~run
    ~should_stop ~on_run (stats : stats) :
    (Solver.Model.t * run_result) option =
  let started = monotonic () in
  let deadline = started +. budget.max_time_s in
  let forks = Telemetry.Metrics.counter telemetry "engine.forks" in
  (* the pending list: LIFO for DFS, FIFO for BFS *)
  let stack : pending Stack.t = Stack.create () in
  let queue : pending Queue.t = Queue.create () in
  let frontier_push p =
    match strategy with Dfs -> Stack.push p stack | Bfs -> Queue.push p queue
  in
  let frontier_pop () =
    match strategy with Dfs -> Stack.pop_opt stack | Bfs -> Queue.take_opt queue
  in
  let frontier_size () =
    match strategy with Dfs -> Stack.length stack | Bfs -> Queue.length queue
  in
  let found = ref None in
  (* [flipped] is the (position, negated constraint) this run was created to
     satisfy.  If the run records a *different* constraint at that position
     (a concretisation re-pinned to a new value), that position is fair game
     for another flip — with the lineage remembering the exclusions.  A
     branch entry re-records exactly the negated constraint, so branches are
     never flip-flopped. *)
  let do_run (model : Solver.Model.t) (bound : int)
      (flipped : (int * Solver.Expr.t) option) (lineage : Solver.Expr.t list) =
    stats.runs <- stats.runs + 1;
    let result : run_result = run model in
    on_run model result;
    if should_stop model result then found := Some (model, result)
    else begin
      (* push children: negate each own (non-inherited) constraint;
         pushed shallow-to-deep so the DFS pops the deepest first *)
      let trace = Array.of_list result.trace in
      let hint = Solver.Model.union_prefer_left model result.observed in
      let before = frontier_size () in
      Array.iteri
        (fun i (e : Path.entry) ->
          let reflip =
            match flipped with
            | Some (j, c) -> i = j && e.cons <> c
            | None -> false
          in
          if e.negatable && (i >= bound || reflip) then
            (* the exclusion lineage matters only along a re-flip chain (the
               re-pinned entry would otherwise cycle through old values); an
               ordinary child's prefix already implies every past decision,
               and a divergent run must not inherit constraints about a path
               it no longer follows *)
            frontier_push
              { trace; upto = i; hint; lineage = (if reflip then lineage else []) })
        trace;
      let after = frontier_size () in
      Telemetry.Metrics.incr ~by:(after - before) forks;
      Telemetry.Metrics.sample telemetry "engine.frontier" (float_of_int after);
      stats.forks <- stats.forks + (after - before);
      stats.pending_peak <- max stats.pending_peak after
    end
  in
  (* initial run: empty model — concrete inputs come from the scenario *)
  do_run Solver.Model.empty 0 None [];
  let continue () =
    !found = None
    && frontier_size () > 0
    && stats.runs < budget.max_runs
    &&
    if monotonic () > deadline then begin
      stats.timed_out <- true;
      false
    end
    else true
  in
  while continue () do
    (* [continue] checked the size, but pop defensively anyway: the
       check-then-pop pair is only atomic while this loop owns the
       frontier alone, and an [Option.get] here turns any future sharing
       (work-stealing siblings drain between check and pop) into a crash
       instead of a clean re-check *)
    match frontier_pop () with
    | None -> ()
    | Some p -> (
        let hint id = Solver.Model.find_opt id p.hint in
        let cs = constraints_of p in
        match solve_pending ?cache ?session ~telemetry ~vars ~hint cs with
        | Solver.Solve.Sat model ->
            stats.sat <- stats.sat + 1;
            (* keep the parent's values for variables the solver left free *)
            let model = Solver.Model.union_prefer_left model p.hint in
            do_run model (p.upto + 1)
              (Some (p.upto, negated_of p))
              (negated_of p :: p.lineage)
        | Solver.Solve.Unsat -> stats.unsat <- stats.unsat + 1
        | Solver.Solve.Unknown -> stats.unknown <- stats.unknown + 1)
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Parallel exploration: a Domain-based worker pool over a shared,
   mutex-protected frontier.

   Invariants:
   - every field of [stats], the frontier and [found] are only touched with
     [m] held;
   - [run] and the solver execute with [m] released (that is the whole
     point); [on_run]/[should_stop] are called with [m] held, so user
     callbacks are serialized and may keep plain mutable state;
   - [active] counts workers between a successful pop and the push of that
     pending's children.  Termination: frontier empty AND [active] = 0 —
     the racy "frontier empty but a worker may still push children" case
     parks waiters on [cv] until the in-flight worker either pushes (then
     broadcasts) or retires;
   - [stats.runs] is reserved under the lock *before* a run executes, so
     the [max_runs] budget is an exact bound, as in the sequential loop. *)

let explore_par ~vars ~budget ~strategy ~jobs ?cache ?incr:isolver ~telemetry ~span ~run
    ~should_stop ~on_run (stats : stats) :
    (Solver.Model.t * run_result) option =
  let started = monotonic () in
  let deadline = started +. budget.max_time_s in
  let forks = Telemetry.Metrics.counter telemetry "engine.forks" in
  (* frontier stats live in Atomic accumulators (not plain stats fields) so
     the final fold below never races a late worker; per-worker run counts
     feed the [worker_runs] parity invariant *)
  let peak = Atomic.make 0 in
  let rec bump_peak n =
    let cur = Atomic.get peak in
    if n > cur && not (Atomic.compare_and_set peak cur n) then bump_peak n
  in
  let forks_n = Atomic.make 0 in
  let wruns = Array.init jobs (fun _ -> Atomic.make 0) in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let stack : pending Stack.t = Stack.create () in
  let queue : pending Queue.t = Queue.create () in
  let frontier_push p =
    match strategy with Dfs -> Stack.push p stack | Bfs -> Queue.push p queue
  in
  let frontier_pop () =
    match strategy with Dfs -> Stack.pop_opt stack | Bfs -> Queue.take_opt queue
  in
  let frontier_size () =
    match strategy with Dfs -> Stack.length stack | Bfs -> Queue.length queue
  in
  let found = ref None in
  let failed = ref None in
  let active = ref 0 in
  (* called with [m] held *)
  let push_children (model : Solver.Model.t) (result : run_result) bound flipped
      lineage =
    let trace = Array.of_list result.trace in
    let hint = Solver.Model.union_prefer_left model result.observed in
    let before = frontier_size () in
    Array.iteri
      (fun i (e : Path.entry) ->
        let reflip =
          match flipped with Some (j, c) -> i = j && e.cons <> c | None -> false
        in
        if e.negatable && (i >= bound || reflip) then
          frontier_push
            { trace; upto = i; hint; lineage = (if reflip then lineage else []) })
      trace;
    let after = frontier_size () in
    Telemetry.Metrics.incr ~by:(after - before) forks;
    Telemetry.Metrics.sample telemetry "engine.frontier" (float_of_int after);
    ignore (Atomic.fetch_and_add forks_n (after - before));
    bump_peak after
  in
  (* execute one run; called with [m] held, releases it around [run] *)
  let do_run_locked k model bound flipped lineage =
    stats.runs <- stats.runs + 1;
    Atomic.incr wruns.(k);
    Mutex.unlock m;
    let result = try Ok (run model) with e -> Error e in
    Mutex.lock m;
    match result with
    | Error e -> if !failed = None then failed := Some e
    | Ok result ->
        on_run model result;
        if should_stop model result then begin
          if !found = None then found := Some (model, result)
        end
        else push_children model result bound flipped lineage
  in
  (* process one pending; called with [m] held, releases it around solving *)
  let process k session (p : pending) =
    Mutex.unlock m;
    let solved =
      try
        let hint id = Solver.Model.find_opt id p.hint in
        Ok (solve_pending ?cache ?session ~telemetry ~vars ~hint (constraints_of p))
      with e -> Error e
    in
    Mutex.lock m;
    match solved with
    | Error e -> if !failed = None then failed := Some e
    | Ok (Solver.Solve.Sat model) ->
        stats.sat <- stats.sat + 1;
        if !found = None && stats.runs < budget.max_runs
           && monotonic () <= deadline
        then begin
          let model = Solver.Model.union_prefer_left model p.hint in
          do_run_locked k model (p.upto + 1)
            (Some (p.upto, negated_of p))
            (negated_of p :: p.lineage)
        end
    | Ok Solver.Solve.Unsat -> stats.unsat <- stats.unsat + 1
    | Ok Solver.Solve.Unknown -> stats.unknown <- stats.unknown + 1
  in
  let worker k () =
    (* the per-worker domain span: nesting is per-domain, so the explore
       span is linked explicitly *)
    Telemetry.Span.with_ telemetry ?parent:span ~name:"engine.worker"
      ~attrs:[ ("worker", Telemetry.Event.Int k) ]
      (fun wsp ->
        let session = Option.map (fun i -> Solver.Incr.session i ~vars) isolver in
        let pops = ref 0 in
        Mutex.lock m;
        let rec loop () =
          if !found <> None || !failed <> None || stats.runs >= budget.max_runs
          then ()
          else if monotonic () > deadline then stats.timed_out <- true
          else
            match frontier_pop () with
            | Some p ->
                incr active;
                incr pops;
                process k session p;
                decr active;
                Condition.broadcast cv;
                loop ()
            | None ->
                if !active = 0 then ()
                else begin
                  (* frontier drained but a sibling is still executing: it may
                     yet push children, so wait for its broadcast *)
                  Condition.wait cv m;
                  loop ()
                end
        in
        loop ();
        Condition.broadcast cv;
        Mutex.unlock m;
        Telemetry.Span.addi wsp "pendings" !pops)
  in
  (* seed the frontier with the initial run (empty model), then fan out *)
  Mutex.lock m;
  do_run_locked 0 Solver.Model.empty 0 None [];
  Mutex.unlock m;
  let domains = Array.init jobs (fun k -> Domain.spawn (worker k)) in
  Array.iter Domain.join domains;
  (match !failed with Some e -> raise e | None -> ());
  stats.pending_peak <- max stats.pending_peak (Atomic.get peak);
  stats.forks <- stats.forks + Atomic.get forks_n;
  stats.worker_runs <- Array.map Atomic.get wruns;
  !found

(* ------------------------------------------------------------------ *)
(* Sharded exploration: per-worker deques with work stealing.

   Each worker owns a deque and pushes its runs' children there, so a
   worker's local work tends to extend its own recent traces — exactly the
   lineage affinity that keeps its incremental solver scope ({!Solver.Incr})
   warm.  For [Dfs] the owner pops newest-first (LIFO) and thieves steal
   oldest-first, taking the shallowest — largest — subtrees and touching the
   victim's cache-hot end never; [Bfs] is the mirror image.

   Synchronization: each deque has its own small mutex; everything global is
   an [Atomic] — [total_pending] (counted *before* a push becomes visible
   and decremented *after* a successful pop, so the emptiness test never
   under-counts), [active] (incremented before a worker tries to pop,
   decremented when its pending is fully processed — children pushed), and
   a set-once [found]/[failed].  Termination: [total_pending = 0 && active
   = 0].  Idle workers park on a condvar; pushers wake them only when the
   sleeper count is non-zero, so the happy path takes no global lock.
   [on_run]/[should_stop] stay serialized under a callback mutex (the
   documented engine contract).  [max_runs] is reserved with a CAS loop, so
   the budget stays an exact bound. *)

module Deque = struct
  type 'a t = {
    mu : Mutex.t;
    mutable buf : 'a option array;
    mutable head : int;  (* index of the first element *)
    mutable len : int;
  }

  let create () =
    { mu = Mutex.create (); buf = Array.make 64 None; head = 0; len = 0 }

  let locked d f =
    Mutex.lock d.mu;
    match f () with
    | v ->
        Mutex.unlock d.mu;
        v
    | exception e ->
        Mutex.unlock d.mu;
        raise e

  let grow d =
    let cap = Array.length d.buf in
    let nbuf = Array.make (cap * 2) None in
    for i = 0 to d.len - 1 do
      nbuf.(i) <- d.buf.((d.head + i) mod cap)
    done;
    d.buf <- nbuf;
    d.head <- 0

  let push_back d x =
    locked d (fun () ->
        if d.len = Array.length d.buf then grow d;
        d.buf.((d.head + d.len) mod Array.length d.buf) <- Some x;
        d.len <- d.len + 1)

  let pop_back d =
    locked d (fun () ->
        if d.len = 0 then None
        else begin
          let i = (d.head + d.len - 1) mod Array.length d.buf in
          let x = d.buf.(i) in
          d.buf.(i) <- None;
          d.len <- d.len - 1;
          x
        end)

  let pop_front d =
    locked d (fun () ->
        if d.len = 0 then None
        else begin
          let x = d.buf.(d.head) in
          d.buf.(d.head) <- None;
          d.head <- (d.head + 1) mod Array.length d.buf;
          d.len <- d.len - 1;
          x
        end)
end

let explore_steal ~vars ~budget ~strategy ~jobs ?cache ?incr:isolver ~telemetry ~span
    ~run ~should_stop ~on_run (stats : stats) :
    (Solver.Model.t * run_result) option =
  let started = monotonic () in
  let deadline = started +. budget.max_time_s in
  let forks_c = Telemetry.Metrics.counter telemetry "engine.forks" in
  let deques = Array.init jobs (fun _ -> Deque.create ()) in
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
  let wake_all () =
    Mutex.lock gm;
    Condition.broadcast cv;
    Mutex.unlock gm
  in
  let push_local k p =
    (* count before the push becomes stealable: the termination test may
       see a phantom pending for a moment, never a missing one *)
    let n = Atomic.fetch_and_add total_pending 1 + 1 in
    bump_peak n;
    Deque.push_back deques.(k) p;
    if Atomic.get sleepers > 0 then wake_all ()
  in
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
        Mutex.lock cb_mu;
        let verdict =
          try
            on_run model result;
            Ok (should_stop model result)
          with e -> Error e
        in
        Mutex.unlock cb_mu;
        match verdict with
        | Error e -> fail e
        | Ok true ->
            ignore (Atomic.compare_and_set found None (Some (model, result)));
            wake_all ()
        | Ok false -> push_children k model result bound flipped lineage)
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
    match own_pop deques.(k) with
    | Some p -> Some p
    | None ->
        (* round-robin victim scan starting at the right-hand neighbour *)
        let rec scan i =
          if i >= jobs then None
          else
            match thief_pop deques.((k + i) mod jobs) with
            | Some p ->
                Atomic.incr steals_n;
                Some p
            | None -> scan (i + 1)
        in
        scan 1
  in
  let worker k () =
    Telemetry.Span.with_ telemetry ?parent:span ~name:"engine.worker"
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
  (* the seeding run executes on the caller, children land in deque 0 and
     are immediately stealable once the workers start *)
  if reserve_run () then begin
    Atomic.incr wruns.(0);
    do_run 0 Solver.Model.empty 0 None []
  end;
  let domains = Array.init jobs (fun k -> Domain.spawn (worker k)) in
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
    [engine.explore] span (one [engine.worker] child span per domain when
    [jobs] > 1), times every run into the [engine.run_s] histogram,
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
        if jobs <= 1 then begin
          let session =
            Option.map (fun i -> Solver.Incr.session i ~vars) incr
          in
          explore_seq ~vars ~budget ~strategy ?cache ?session ~telemetry ~run
            ~should_stop ~on_run stats
        end
        else if steal then
          explore_steal ~vars ~budget ~strategy ~jobs ?cache ?incr ~telemetry
            ~span:(Some sp) ~run ~should_stop ~on_run stats
        else
          explore_par ~vars ~budget ~strategy ~jobs ?cache ?incr ~telemetry
            ~span:(Some sp) ~run ~should_stop ~on_run stats
      in
      if jobs <= 1 then stats.worker_runs <- [| stats.runs |];
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
