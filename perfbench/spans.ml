(* The benchmark's own spans, opened around its calls into the program's
   modules.  The program's Telemetry handle stays disabled in every run;
   this handle is seen only by the benchmark, keeps its events in memory
   and is written out when the run ends.  Spans are recorded only while
   [recording] is on, so untraced passes pay one field load per call. *)

let sink, collected = Telemetry.Sink.memory ()
let recorder = Telemetry.create ~sink ()
let current = ref Telemetry.disabled
let recording on = current := if on then recorder else Telemetry.disabled

let with_ ?(attrs = []) name f =
  Telemetry.Span.with_ !current ~attrs ~name (fun _ -> f ())

let events () = collected ()

type span = {
  name : string;
  dur : float;
  attrs : Telemetry.Event.attrs;  (** begin attributes *)
  root : string;  (** name of the outermost enclosing span *)
}

(* Every closed span, in begin order. *)
let closed () =
  let open Telemetry.Event in
  let begins = Hashtbl.create 1024 in
  let root_of id =
    let rec up id =
      match Hashtbl.find_opt begins id with
      | Some (_, _, _, Some p) when Hashtbl.mem begins p -> up p
      | Some (_, _, name, _) -> name
      | None -> ""
    in
    up id
  in
  let out = ref [] in
  List.iter
    (function
      | Span_begin b -> Hashtbl.replace begins b.id (b.t, b.attrs, b.name, b.parent)
      | Span_end e -> (
          match Hashtbl.find_opt begins e.id with
          | Some (t0, attrs, _, _) ->
              out :=
                (t0, { name = e.name; dur = e.t -. t0; attrs; root = root_of e.id })
                :: !out
          | None -> ())
      | Sample _ | Counter _ -> ())
    (events ());
  List.sort (fun (a, _) (b, _) -> compare a b) !out |> List.map snd

let durations spans name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some s.dur else None)
    spans

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Telemetry.Event.to_json e);
          output_char oc '\n')
        (events ()))
