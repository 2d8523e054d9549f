(* The generated load: the seeded corpus, each workload's request lines,
   and the seeded renamer behind warm-renamed.

   Everything here is harness work.  The program under test only ever
   sees the finished request lines. *)

module History = Smem_core.History
module Op = Smem_core.Op
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Canon = Smem_core.Canon
module Sort = Smem_core.Sort
module Test = Smem_litmus.Test
module Request = Smem_api.Request
module Wire = Smem_api.Wire

type workload = Check_cold | Warm_renamed | Certify_solve

let workloads =
  [
    ("check-cold", Check_cold);
    ("warm-renamed", Warm_renamed);
    ("certify-solve", Certify_solve);
  ]

(* Corpus sizes.  Every workload needs at least 1000 requests per pass,
   so that a p99 over the load's requests has ten samples beyond it.
   check-cold spends most of its time in a few heavy cells (wo, rc-sc),
   so its total swings with how many of them a seed's corpus draws;
   2000 tests keep that within a few percent between seeds. *)
let default_tests = function
  | Check_cold -> 2000
  | Warm_renamed | Certify_solve -> 1000

(* The certify-solve size cap keeps every forbidden certificate within
   the kernel's exhaustive re-refutation range, so each one must verify
   [Complete]. *)
let certify_max_ops = Smem_cert.Kernel.default_max_search_ops

(* One request: the cells it asks about, over the test's original
   spelling (verdicts are checked against these). *)
type item = { test : Test.t; models : Model.t list }

type t = {
  items : item array;
  digests : string array;  (** [Canon.digest] of each item's test *)
  texts : string array;  (** each item's test as litmus text *)
  generate_s : float;  (** corpus generation time, harness side *)
  tests : int;  (** deduplicated corpus size *)
  ops_mean : float;
}

(* The generator already deduplicates on the canonical digest; doing it
   again here is what guarantees check-cold's "every cell misses". *)
let dedup tests =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun (t : Test.t) ->
      let d = Canon.digest t.Test.history in
      if Hashtbl.mem seen d then false
      else begin
        Hashtbl.add seen d ();
        true
      end)
    tests

let make workload ~seed ~tests =
  let t0 = Smem_obs.Clock.now () in
  let tests = dedup (Smem_corpus.Corpus.generate ~seed ~count:tests ()) in
  let generate_s = float (Smem_obs.Clock.elapsed_ns t0) /. 1e9 in
  let items =
    match workload with
    | Check_cold | Warm_renamed ->
        List.map (fun test -> { test; models = Registry.all }) tests
    | Certify_solve ->
        List.concat_map
          (fun (test : Test.t) ->
            if History.nops test.Test.history > certify_max_ops then []
            else List.map (fun m -> { test; models = [ m ] }) Registry.certifiable)
          tests
  in
  let items = Array.of_list items in
  let ops =
    List.fold_left (fun n (t : Test.t) -> n + History.nops t.Test.history) 0 tests
  in
  {
    items;
    digests = Array.map (fun it -> Canon.digest it.test.Test.history) items;
    texts = Array.map (fun it -> Smem_litmus.Print.to_string it.test) items;
    generate_s;
    tests = List.length tests;
    ops_mean = float ops /. float (max 1 (List.length tests));
  }

(* The smem-api/2 request line for [item], its test spelled as [text].  Ids run
   1..n within a pass, so every pass of a workload sends the same ids. *)
let line workload ~id item text =
  let source = Request.Inline text in
  let req =
    match (workload, item.models) with
    | Certify_solve, [ m ] ->
        Request.Certify { test = source; model = m.Model.key; format = `Json }
    | Certify_solve, _ -> invalid_arg "Load.line: certify takes one model"
    | (Check_cold | Warm_renamed), models ->
        Request.Check
          { test = source; models = List.map (fun (m : Model.t) -> m.Model.key) models }
  in
  Wire.request_line ~proto:Wire.V2 ~id req

let original_lines workload load =
  Array.mapi (fun i it -> line workload ~id:(i + 1) it load.texts.(i)) load.items

(* ------------------------------------------------------------------ *)
(* Seeded renaming                                                     *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* A processor permutation, a location renaming and, per location, a
   bijection on the nonzero values (0 is every location's initial value
   and stays fixed).  Counter values count increments, so they are not
   renamed; the sort prefix of an object location is kept.  Fresh names
   ("m<k>") never coincide with the corpus's canonical "l<k>", so the
   litmus text always changes. *)
let rename rng (t : Test.t) =
  let h = t.Test.history in
  let rows = shuffle rng (Array.init (History.nprocs h) Fun.id) in
  let nlocs = History.nlocs h in
  let new_loc = shuffle rng (Array.init nlocs Fun.id) in
  let loc_name l =
    Sort.prefix (Sort.of_loc h l) ^ "m" ^ string_of_int new_loc.(l)
  in
  let values =
    Array.init nlocs (fun l ->
        let vs =
          Array.to_list (History.ops h)
          |> List.filter_map (fun (op : Op.t) ->
                 if op.Op.loc = l && op.Op.value <> 0 then Some op.Op.value
                 else None)
          |> List.sort_uniq compare |> Array.of_list
        in
        let offset = Random.State.int rng 4 in
        let image =
          shuffle rng (Array.init (Array.length vs) (fun i -> i + 1 + offset))
        in
        let tbl = Hashtbl.create 4 in
        Array.iteri (fun i v -> Hashtbl.replace tbl v image.(i)) vs;
        tbl)
  in
  let value (op : Op.t) =
    match Sort.of_loc h op.Op.loc with
    | Sort.Counter -> op.Op.value
    | Sort.Register | Sort.Queue -> (
        match Hashtbl.find_opt values.(op.Op.loc) op.Op.value with
        | Some v -> v
        | None -> op.Op.value)
  in
  let event id =
    let op = History.op h id in
    let labeled = Op.is_labeled op and at = History.interval h id in
    let loc = loc_name op.Op.loc in
    if Op.is_read op then History.read ~labeled ?at loc (value op)
    else History.write ~labeled ?at loc (value op)
  in
  let renamed =
    History.make
      (Array.to_list
         (Array.map
            (fun p -> Array.to_list (Array.map event (History.proc_ops h p)))
            rows))
  in
  Test.of_history ~name:t.Test.name ~doc:t.Test.doc ~expect:[] renamed

(* Every item re-spelled under renaming number [round] of [seed].  Each
   variant is checked before it is used: it must land on its original's
   digest (or the cache could not serve it) and must not be the original
   text (or the pass would not exercise renaming). *)
let renamed_lines workload load ~seed ~round =
  let rng = Random.State.make [| seed; round; 0x5eed |] in
  Array.mapi
    (fun i it ->
      let variant = rename rng it.test in
      if Canon.digest variant.Test.history <> load.digests.(i) then
        failwith
          (Printf.sprintf "renamer: %s round %d changed the canonical digest"
             it.test.Test.name round);
      let text = Smem_litmus.Print.to_string variant in
      if text = load.texts.(i) then
        failwith
          (Printf.sprintf "renamer: %s round %d left the text unchanged"
             it.test.Test.name round);
      line workload ~id:(i + 1) it text)
    load.items
