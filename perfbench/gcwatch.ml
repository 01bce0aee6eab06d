(* GC pauses of the traced run, read from the runtime's own event rings
   (Runtime_events): every minor collection and major slice, per
   domain ring, from its begin event to its end event. *)

module RE = Runtime_events

type t = {
  cursor : RE.cursor;
  callbacks : RE.Callbacks.t;
  pauses : Probe.Samples.t;  (* nanoseconds *)
  spans : Probe.span list ref;
  lost : int ref;
}

let is_pause = function RE.EV_MINOR | RE.EV_MAJOR_SLICE -> true | _ -> false
let ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

let start () =
  RE.start ();
  let open_ = Hashtbl.create 16 in
  let pauses = Probe.Samples.create () and spans = ref [] and lost = ref 0 in
  let runtime_begin ring ts phase =
    if is_pause phase then Hashtbl.replace open_ (ring, phase) (ns ts)
  in
  let runtime_end ring ts phase =
    match Hashtbl.find_opt open_ (ring, phase) with
    | Some t0 ->
        Hashtbl.remove open_ (ring, phase);
        let dur = ns ts - t0 in
        Probe.Samples.add pauses dur;
        if Probe.Samples.length pauses <= Probe.max_spans then
          spans :=
            { Probe.name = RE.runtime_phase_name phase; cat = "gc"; tid = 100 + ring; id = 0; ts = t0; dur }
            :: !spans
    | None -> ()
  in
  {
    cursor = RE.create_cursor None;
    callbacks =
      RE.Callbacks.create ~runtime_begin ~runtime_end
        ~lost_events:(fun _ n -> lost := !lost + n)
        ();
    pauses;
    spans;
    lost;
  }

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

let metrics t =
  let d = Probe.dist [ t.pauses ] in
  let n = Array.length d in
  [
    Probe.pct ~scale:1e6 "gc.pause_ms.p99" d 0.99;
    Probe.m
      ~note:(Printf.sprintf "%d pauses, %d events lost" n !(t.lost))
      "gc.pause_ms.max"
      (if n = 0 then 0. else float_of_int d.(n - 1) /. 1e6);
  ]
