(* chan-pipeline: the parking layer.  One producer and one consumer
   domain run a closed loop over a Channel of capacity 4, so each side
   in turn finds the channel full or empty and parks in Stm.retry.
   Each item carries its sequence number and the time its send body
   ran, just before the send's commit; the handoff latency runs from
   there to the return of the receiving call.  Items must arrive
   exactly once, in send order. *)

module P = Probe
module A = Bigarray.Array1
module Channel = Proust_sync.Channel

let capacity = 4
let pool = 1 lsl 20

type item = { seq : int; v : int; ts : int }
type t = { payload : (int, Bigarray.int_elt, Bigarray.c_layout) A.t }

let setup ~seed ~dir:_ =
  Stm.set_retry_mode Stm.Park;
  let st = Random.State.make [| seed |] in
  let payload = A.create Bigarray.int Bigarray.c_layout pool in
  for i = 0 to pool - 1 do
    payload.{i} <- Random.State.bits st
  done;
  { payload }

let discard _ = ()
let config () = { (Stm.get_default_config ()) with mode = Stm.Lazy_lazy }

let producer st ch (c : P.ctx) sent clock =
  let config = config () in
  let seq = ref 0 in
  while not (P.stopped clock) do
    let s = !seq in
    P.atomically c ~cls:1 ~clock ~config ~ops:1 (fun txn ->
        if c.P.on && Channel.size txn ch = capacity then c.P.blocked <- true;
        Channel.send txn ch { seq = s; v = st.payload.{s land (pool - 1)}; ts = P.now () });
    incr seq
  done;
  Stm.atomically ~config (fun txn -> Channel.close txn ch);
  Atomic.set sent !seq

type consumed = {
  mutable received : int;
  mutable out_of_order : int;
  mutable checksum : int;
  mutable blocked : int;  (* traced receives that found the channel empty *)
  mutable recorded : int;  (* traced receives *)
  handoff : P.Samples.t;
  handoff_at : P.Samples.t;
  blocked_handoff : P.Samples.t;
}

let consumer (c : P.ctx) ch k clock =
  let config = config () in
  let rec loop () =
    let t_call = P.now () in
    match
      P.atomically c ~cls:0 ~clock ~config ~ops:1 (fun txn ->
          if c.P.on && Channel.size txn ch = 0 then c.P.blocked <- true;
          Channel.recv_opt txn ch)
    with
    | None -> ()
    | Some it ->
        let t = P.now () in
        if it.seq <> k.received then k.out_of_order <- k.out_of_order + 1;
        k.received <- k.received + 1;
        k.checksum <- k.checksum + it.v;
        if P.recording clock t_call then begin
          P.Samples.add k.handoff (t - it.ts);
          P.Samples.add k.handoff_at (t - Atomic.get clock.P.t0);
          if c.P.traced then begin
            k.recorded <- k.recorded + 1;
            if c.P.blocked then begin
              k.blocked <- k.blocked + 1;
              P.Samples.add k.blocked_handoff (t - it.ts)
            end
          end
        end;
        loop ()
  in
  loop ()

let run st ~seconds ~traced ~poll =
  let ch = Channel.make ~capacity () in
  let pc = P.ctx ~seconds ~traced 0 and cc = P.ctx ~seconds ~traced 1 in
  let sent = Atomic.make 0 in
  let k =
    {
      received = 0;
      out_of_order = 0;
      checksum = 0;
      blocked = 0;
      recorded = 0;
      handoff = P.Samples.create ();
      handoff_at = P.Samples.create ();
      blocked_handoff = P.Samples.create ();
    }
  in
  let w = P.measure ~poll ~warmup:0.5 ~seconds [ producer st ch pc sent; consumer cc ch k ] in
  let sent = Atomic.get sent in
  let expected = ref 0 in
  for s = 0 to sent - 1 do
    expected := !expected + st.payload.{s land (pool - 1)}
  done;
  let problems =
    (if k.received <> sent then [ Printf.sprintf "sent %d items, received %d" sent k.received ] else [])
    @ (if k.out_of_order > 0 then [ Printf.sprintf "%d items out of order" k.out_of_order ] else [])
    @ if !expected <> k.checksum then [ "payload checksum differs" ] else []
  in
  let rate, e2e = P.e2e ~seconds w [ cc ] [ (k.handoff, k.handoff_at) ] in
  let recv = P.dist [ cc.P.lat.(0) ] and send = P.dist [ pc.P.lat.(1) ] in
  let st_d = Stats.diff w.P.st0 w.P.st1 in
  let layer =
    if not traced then []
    else
      P.layer_metrics w [ pc; cc ]
      @ [
          P.m ~note:(Printf.sprintf "%d items" k.recorded) "parking.parks_per_item"
            (P.ratio st_d.Stats.parks k.recorded);
          P.m "parking.wakeups" (float_of_int st_d.Stats.wakeups);
          P.m "parking.spurious_wakeups" (float_of_int st_d.Stats.spurious_wakeups);
          P.m "parking.retry_polls" (float_of_int st_d.Stats.retry_polls);
          P.m "parking.blocked_recv_share" (P.ratio k.blocked k.recorded);
          P.pct "parking.blocked_handoff_p50_us" (P.dist [ k.blocked_handoff ]) 0.5;
        ]
  in
  {
    P.attempted = max 1 sent;
    failed = k.out_of_order + abs (sent - k.received);
    problems;
    rate;
    metrics =
      e2e
      @ [
          P.pct "txn.read_p50_us" recv 0.5;
          P.pct "txn.read_p99_us" recv 0.99;
          P.pct "txn.write_p50_us" send 0.5;
          P.pct "txn.write_p99_us" send 0.99;
          P.pct "txn.handoff_p99_us" (P.dist [ k.handoff ]) 0.99;
        ]
      @ layer;
    ctxs = [ pc; cc ];
  }

let finish _ = ([], [])
