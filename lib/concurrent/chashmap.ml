type ('k, 'v) stripe = { m : Mutex.t; tbl : ('k, 'v) Hashtbl.t }

type ('k, 'v) t = {
  stripes : ('k, 'v) stripe array;
  hash : 'k -> int;
  mask : int;
  count : Striped_counter.t;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ?(stripes = 32) ?(hash = Hashtbl.hash) () =
  let n = next_pow2 stripes 1 in
  {
    stripes = Array.init n (fun _ -> { m = Mutex.create (); tbl = Hashtbl.create 16 });
    hash;
    mask = n - 1;
    count = Striped_counter.create ();
  }

let stripe_of t k = t.stripes.(t.hash k land t.mask)

(* Runs [f tbl x] under the stripe's lock and unlocks on a raise too.
   An inline handler, not [Fun.protect], which allocates closures and a
   handler on every base operation.  [x] lets [get] and [contains] pass
   a [Hashtbl] function with no closure. *)
let locked s f x =
  Mutex.lock s.m;
  match f s.tbl x with
  | v ->
      Mutex.unlock s.m;
      v
  | exception e ->
      Mutex.unlock s.m;
      raise e

let locked_tbl s f = locked s (fun tbl f -> f tbl) f
let with_stripe t k f = locked_tbl (stripe_of t k) f
let get t k = locked (stripe_of t k) Hashtbl.find_opt k
let contains t k = locked (stripe_of t k) Hashtbl.mem k

let put t k v =
  with_stripe t k (fun tbl ->
      let old = Hashtbl.find_opt tbl k in
      Hashtbl.replace tbl k v;
      if old = None then Striped_counter.incr t.count;
      old)

let put_if_absent t k v =
  with_stripe t k (fun tbl ->
      match Hashtbl.find_opt tbl k with
      | Some _ as old -> old
      | None ->
          Hashtbl.replace tbl k v;
          Striped_counter.incr t.count;
          None)

let remove t k =
  with_stripe t k (fun tbl ->
      let old = Hashtbl.find_opt tbl k in
      if old <> None then begin
        Hashtbl.remove tbl k;
        Striped_counter.decr t.count
      end;
      old)

let compute t k f =
  with_stripe t k (fun tbl ->
      let old = Hashtbl.find_opt tbl k in
      (match f old with
      | Some v ->
          Hashtbl.replace tbl k v;
          if old = None then Striped_counter.incr t.count
      | None ->
          if old <> None then begin
            Hashtbl.remove tbl k;
            Striped_counter.decr t.count
          end);
      old)

let size t = Striped_counter.get t.count
let is_empty t = size t = 0

let iter f t =
  Array.iter (fun s -> locked_tbl s (Hashtbl.iter f)) t.stripes

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Array.iter
    (fun s ->
      locked_tbl s (fun tbl ->
          Striped_counter.add t.count (-Hashtbl.length tbl);
          Hashtbl.reset tbl))
    t.stripes

let bindings t = fold (fun k v acc -> (k, v) :: acc) t []
