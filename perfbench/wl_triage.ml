(* Workload [triage]: the fleet.  A seeded Report_gen stream — duplicates
   dominate, a seeded 5 % arrives torn — is submitted to a
   Triage.Service with a persistent index, ticking every 32 submissions;
   the service is then stopped without draining, reopened (the index
   reload rebuilds every bucket) and drained with a run-bounded 60/400
   ladder on two worker domains.  Index writes beside index reads, wire
   decoding and salvage, replay of salvaged low-log reports, and the only
   jobs > 1 path. *)

module Tally = Check.Tally
module Service = Triage.Service

type scale = { reports : int; clients : int; quick_bases : bool }

let full = { reports = 20_000; clients = 1_000; quick_bases = false }
let smoke = { reports = 300; clients = 20; quick_bases = true }
let tick_every = 32

type env = {
  gen : Workloads.Report_gen.t;
  stream : Workloads.Report_gen.report list;
  config : Service.config;
  work_dir : string;
  mutable summary : string option;
      (** the first pass's timing-stripped drain summary *)
}

let policy (c : Setup.Config.t) =
  {
    (Triage.Sched.policy_of_config c) with
    Triage.Sched.ladder = [ Setup.runs_budget 60; Setup.runs_budget 400 ];
    jobs = 2;
    final_rung_jobs = 1;
    deadline_s = Setup.safety_net_s;
  }

(* Base recording (analyses, plans and one field run per base crash) and
   the seeded stream over the recorded wires. *)
let setup (s : scale) (c : Setup.Config.t) ~seed ~work_dir _tally =
  let gen = Workloads.Report_gen.make ~quick:s.quick_bases ~config:c () in
  let stream =
    Spans.with_ "workloads.report_gen" (fun () ->
        Workloads.Report_gen.stream gen ~seed ~clients:s.clients
          ~torn_pct:0.05 s.reports)
  in
  let config =
    {
      Service.default_config with
      Service.policy = policy c;
      queue_capacity = 512;
      drop = Service.Drop_oldest;
      burst = 64;
      window = 512;
      eager = false;
      index_dir = None;
    }
  in
  { gen; stream; config; work_dir; summary = None }

let resolve env (cl : Triage.Cluster.t) =
  let r = cl.Triage.Cluster.representative.Triage.Ingest.report in
  Workloads.Report_gen.plan_for env.gen ~program:r.Instrument.Report.program
    ~meth:r.Instrument.Report.method_used

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc n -> acc + (Unix.stat (Filename.concat dir n)).Unix.st_size)
    0 (Sys.readdir dir)

let counter = ref 0

let fresh_dir env =
  incr counter;
  let d =
    Filename.concat env.work_dir
      (Printf.sprintf "index-%d-%d" (Unix.getpid ()) !counter)
  in
  rm_rf d;
  d

(* What the service should make of the stream, from the benchmark's own
   calls into both wire readers: strict accepts, salvage-only accepts, and
   reports neither reader takes. *)
let expected env tally =
  List.fold_left
    (fun (strict, salvaged, rejected) (r : Workloads.Report_gen.report) ->
      Tally.addi tally "report_bytes.sum" (String.length r.wire);
      Tally.addi tally "report_bytes.n" 1;
      match
        Spans.with_ "wire.deserialize_v" (fun () ->
            Instrument.Wire.deserialize_v r.wire)
      with
      | Ok _ -> (strict + 1, salvaged, rejected)
      | Error _ -> (
          match
            Spans.with_ "wire.deserialize_salvage" (fun () ->
                Instrument.Wire.deserialize_salvage r.wire)
          with
          | Ok _ -> (strict, salvaged + 1, rejected)
          | Error _ -> (strict, salvaged, rejected + 1)))
    (0, 0, 0) env.stream

let open_service env dir =
  match
    Spans.with_ "triage.open_" (fun () ->
        Service.open_
          ~config:{ env.config with index_dir = Some dir }
          ~resolve:(resolve env) ())
  with
  | Ok svc -> svc
  | Error e ->
      failwith ("triage: index open failed: " ^ Triage.Index.error_to_string e)

let key (r : Triage.Sched.cluster_result) =
  Triage.Fingerprint.key r.cluster.Triage.Cluster.fp

let pass (env : env) tally =
  let strict, salvaged, rejected = expected env tally in
  let dir = fresh_dir env in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc = open_service env dir in
      let ingest () =
        List.iteri
          (fun i (r : Workloads.Report_gen.report) ->
            Check.attempt ();
            (match
               Spans.with_ "triage.submit" (fun () ->
                   Service.submit svc ~path:r.path r.wire)
             with
            | Service.Queued -> ()
            | Service.Dropped why -> Check.fail ("submission dropped: " ^ why)
            | Service.Rejected e ->
                Check.fail
                  ("submission rejected: " ^ Instrument.Wire.error_to_string e));
            if i mod tick_every = tick_every - 1 then
              ignore (Spans.with_ "triage.tick" (fun () -> Service.tick svc)))
          env.stream;
        while Service.queue_depth svc > 0 do
          ignore (Spans.with_ "triage.tick" (fun () -> Service.tick svc))
        done
      in
      Calib.tick ();
      let (), ingest_s = Sample.time ingest in
      let snap = Service.snapshot svc in
      Service.close svc;
      Check.require
        (snap.submitted = snap.processed + snap.rejected + snap.dropped
        && snap.queued = 0)
        (Printf.sprintf
           "triage: submitted %d <> processed %d + rejected %d + dropped %d"
           snap.submitted snap.processed snap.rejected snap.dropped);
      Check.require
        (snap.submitted = strict + salvaged + rejected
        && snap.rejected = rejected)
        "triage: the service's rejections disagree with the wire readers";
      Tally.time tally "ingest" ingest_s;
      Tally.addi tally "submitted" snap.submitted;
      Tally.addi tally "lost" (snap.rejected + snap.dropped);
      Tally.addi tally "triage.index_bytes" (dir_bytes dir);
      (* the service stops without draining; a second incarnation rebuilds
         every bucket from the index *)
      Calib.tick ();
      let svc, open_s = Sample.time (fun () -> open_service env dir) in
      let rsnap = Service.snapshot svc in
      Check.require
        (rsnap.processed = snap.processed && rsnap.clusters = snap.clusters)
        (Printf.sprintf
           "triage: reopen rebuilt %d reports / %d clusters, expected %d / %d"
           rsnap.processed rsnap.clusters snap.processed snap.clusters);
      Tally.time tally "open" open_s;
      Tally.addi tally "recovered" rsnap.processed;
      Calib.tick ();
      let summary, drain_s =
        Sample.time (fun () ->
            Spans.with_ "triage.drain" (fun () -> Service.drain svc))
      in
      let results = Service.cluster_results svc in
      Service.close svc;
      Tally.time tally "drain" drain_s;
      Check.require
        (summary.salvaged = salvaged)
        (Printf.sprintf "triage: %d reports salvaged, the wire readers say %d"
           summary.salvaged salvaged);
      Tally.addi tally "triage.salvaged" summary.salvaged;
      Tally.addi tally "triage.clusters" (List.length summary.clusters);
      Tally.add tally "triage.dedup_ratio" summary.dedup_ratio;
      (* A cluster whose ladder ran out of runs is the drain's answer for
         it (success_share counts it); only the wall-clock safety net
         cutting a rung short is a failed operation. *)
      let ladder_runs =
        List.fold_left
          (fun n (b : Concolic.Engine.budget) -> n + b.max_runs)
          0 env.config.policy.ladder
      in
      List.iter
        (fun (r : Triage.Sched.cluster_result) ->
          Check.attempt ();
          Tally.addi tally "triage.drain_runs" r.runs;
          Tally.addi tally "concolic.runs" r.runs;
          Wl_repro.tally_cases tally r.cases;
          Tally.time tally "replay" r.elapsed_s;
          match r.status with
          | Triage.Sched.Reproduced _ ->
              Tally.addi tally "reproduced" 1;
              Tally.sample tally "replay.bug_s" r.elapsed_s
          | Triage.Sched.Timed_out when r.runs < ladder_runs ->
              Check.fail
                (Printf.sprintf "cluster %s: wall-clock safety net after %d runs"
                   (key r) r.runs)
          | Triage.Sched.Timed_out | Triage.Sched.Exhausted -> ()
          | Triage.Sched.Failed why ->
              Check.violation ("cluster " ^ key r ^ ": " ^ why))
        results;
      (* run-bounded rungs make the drain's answers independent of worker
         scheduling, so every pass must render the same summary *)
      let rendered = Triage.Summary.to_json ~timing:false summary in
      match env.summary with
      | None -> env.summary <- Some rendered
      | Some first ->
          Check.require (String.equal first rendered)
            "triage: two drains of the same stream disagree")

let seeded (env : env) =
  Setup.digest
    (List.map (fun (r : Workloads.Report_gen.report) -> (r.path, r.wire)) env.stream)

let fixed (env : env) =
  let c = env.config in
  Setup.digest
    ( Workloads.Report_gen.bases env.gen
      |> List.map (fun (p, m) -> (p, Instrument.Methods.to_string m)),
      c.policy,
      (c.queue_capacity, c.burst, c.window, c.window_k, c.eager, c.wall_rungs),
      c.index_shards )
