(** The mechanism families of the generated suite: templates whose mix
    per CWE exercises each baseline's structural blind spots in
    proportions that land the Table II shape (odd sizes for HWASan
    granule padding, far strides past ASan redzones, libc-routed flaws,
    wide-character functions, sub-object overflows). *)

val for_cwe : Case.cwe -> Case.family list
