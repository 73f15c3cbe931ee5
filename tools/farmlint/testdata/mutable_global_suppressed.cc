// Fixture: an allow comment with a reason keeps a deliberate global.
int& Verbosity() {
  // farmlint: allow(mutable-global): read once from the environment
  static int level = 0;
  return level;
}

int g_flag = 0;  // farmlint: allow(mutable-global): process-wide test switch
